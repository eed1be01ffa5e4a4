let mean = function
  | [] -> 0.
  | samples -> List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples)

let stddev samples =
  match samples with
  | [] | [ _ ] -> 0.
  | _ ->
      let m = mean samples in
      let sq = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. samples in
      sqrt (sq /. float_of_int (List.length samples))

let minimum = function
  | [] -> invalid_arg "Stats.minimum: empty list"
  | x :: rest -> List.fold_left Float.min x rest

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty list"
  | x :: rest -> List.fold_left Float.max x rest

let median samples =
  match List.sort Float.compare samples with
  | [] -> invalid_arg "Stats.median: empty list"
  | sorted ->
      let a = Array.of_list sorted in
      let len = Array.length a in
      if len mod 2 = 1 then a.(len / 2)
      else (a.((len / 2) - 1) +. a.(len / 2)) /. 2.

(* Linear interpolation between the two order statistics around rank
   [q (n - 1)] of the sorted array [a] (n >= 2). *)
let interpolate a q =
  let n = Array.length a in
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor pos) in
  let frac = pos -. float_of_int i in
  if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let quantiles qs samples =
  List.iter
    (fun q -> if q < 0. || q > 1. then invalid_arg "Stats.quantile: q must be in [0, 1]")
    qs;
  match Array.length samples with
  | 0 -> List.map (fun _ -> 0.) qs
  | 1 -> List.map (fun _ -> samples.(0)) qs
  | _ ->
      let a = Array.copy samples in
      Array.stable_sort Float.compare a;
      List.map (interpolate a) qs

let quantile q samples = List.hd (quantiles [ q ] (Array.of_list samples))

let relative_error ~expected ~actual =
  Float.abs (actual -. expected) /. Float.max 1e-9 (Float.abs expected)

let geometric_mean = function
  | [] -> 0.
  | samples ->
      let log_sum =
        List.fold_left
          (fun acc x ->
            if x <= 0. then invalid_arg "Stats.geometric_mean: non-positive sample"
            else acc +. log x)
          0. samples
      in
      exp (log_sum /. float_of_int (List.length samples))
