type t = Evaluations of int

type clock = { limit : int; mutable ticks : int }

let start_at ~ticks (Evaluations n) =
  if n < 0 then invalid_arg "Budget.start: negative evaluations";
  if ticks < 0 then invalid_arg "Budget.start_at: negative ticks";
  { limit = n; ticks }

let start budget = start_at ~ticks:0 budget

let ticks c = c.ticks
let tick c = c.ticks <- c.ticks + 1
let exhausted c = c.ticks >= c.limit

(* ⌈temp·n/k⌉ with n = q·k + r: temp·q + ⌈temp·r/k⌉, where temp·q <= n
   and temp·r < k² stay far from overflow. *)
let share_end (Evaluations n) ~k temp =
  (temp * (n / k)) + (((temp * (n mod k)) + k - 1) / k)

let scale factor (Evaluations n) =
  Evaluations (int_of_float (Float.round (float_of_int n *. factor)))

let evaluations (Evaluations n) = n
