type t = float array

let check_positive name y =
  if y <= 0. || Float.is_nan y then invalid_arg (name ^ ": temperatures must be positive")

let constant ~k y =
  if k <= 0 then invalid_arg "Schedule.constant: k <= 0";
  check_positive "Schedule.constant" y;
  Array.make k y

let geometric ~y1 ~ratio ~k =
  if k <= 0 then invalid_arg "Schedule.geometric: k <= 0";
  check_positive "Schedule.geometric" y1;
  if ratio <= 0. || ratio > 1. then invalid_arg "Schedule.geometric: ratio outside (0,1]";
  Array.init k (fun i -> y1 *. (ratio ** float_of_int i))

let kirkpatrick () = geometric ~y1:10. ~ratio:0.9 ~k:6

let uniform_points ~count ~max =
  if count <= 0 then invalid_arg "Schedule.uniform_points: count <= 0";
  check_positive "Schedule.uniform_points" max;
  (* Golden-Skiscim: [count] evenly spaced points in (0, max], hottest
     first so the index ordering matches the other schedules. *)
  Array.init count (fun i -> max *. float_of_int (count - i) /. float_of_int count)

let scaled t factor =
  if factor <= 0. then invalid_arg "Schedule.scaled: factor <= 0";
  Array.map (fun y -> y *. factor) t

let length = Array.length

let get t i =
  if i < 1 || i > Array.length t then invalid_arg "Schedule.get: index outside 1..k";
  t.(i - 1)

let of_array a =
  if Array.length a = 0 then invalid_arg "Schedule.of_array: empty";
  Array.iter (check_positive "Schedule.of_array") a;
  Array.copy a
