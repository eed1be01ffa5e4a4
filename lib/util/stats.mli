(** Small descriptive statistics over float samples. *)

val mean : float list -> float
(** Arithmetic mean; [0.] for the empty list. *)

val stddev : float list -> float
(** Population standard deviation; [0.] for fewer than two samples. *)

val minimum : float list -> float
val maximum : float list -> float

val median : float list -> float

val quantile : float -> float list -> float
(** [quantile q samples] is the [q]-th quantile ([q] in [[0, 1]]) of the
    samples by linear interpolation between the two nearest order statistics
    ([quantile 0.] = minimum, [quantile 1.] = maximum, [quantile 0.5] =
    {!median}).  Degenerate inputs do not raise: the empty list yields
    [0.] and a single sample yields that sample for every [q] — serving
    runs routinely summarize latency lists that can legitimately be empty
    (zero queries configured).
    @raise Invalid_argument when [q] is outside [[0, 1]]. *)

val quantiles : float list -> float array -> float list
(** [quantiles qs samples] is
    [List.map (fun q -> quantile q (Array.to_list samples)) qs], sorting a
    copy of the samples once instead of once per [q] ([samples] itself is
    left as it is).
    @raise Invalid_argument when some [q] is outside [[0, 1]]. *)

val relative_error : expected:float -> actual:float -> float
(** [|actual - expected| / max 1e-9 |expected|]. *)

val geometric_mean : float list -> float
(** Geometric mean of strictly positive samples; [0.] for the empty list. *)
