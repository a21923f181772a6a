let case name f = Alcotest.test_case name `Quick f

let small () =
  (* 5 elements; nets: {0,1} {1,2} {2,3,4} {0,4} *)
  Netlist.create ~n_elements:5
    ~pins:[| [| 0; 1 |]; [| 1; 2 |]; [| 2; 3; 4 |]; [| 0; 4 |] |]

let test_sizes () =
  let nl = small () in
  Alcotest.check Alcotest.int "elements" 5 (Netlist.n_elements nl);
  Alcotest.check Alcotest.int "nets" 4 (Netlist.n_nets nl)

let test_pins_sorted_copy () =
  let nl = Netlist.create ~n_elements:3 ~pins:[| [| 2; 0 |] |] in
  Alcotest.check Alcotest.(array int) "sorted" [| 0; 2 |] (Netlist.pins nl 0);
  let p = Netlist.pins nl 0 in
  p.(0) <- 99;
  Alcotest.check Alcotest.(array int) "copy isolated" [| 0; 2 |] (Netlist.pins nl 0)

let test_net_size () =
  let nl = small () in
  Alcotest.check Alcotest.int "two-pin" 2 (Netlist.net_size nl 0);
  Alcotest.check Alcotest.int "three-pin" 3 (Netlist.net_size nl 2)

let test_incident () =
  let nl = small () in
  Alcotest.check Alcotest.(array int) "element 0" [| 0; 3 |] (Netlist.incident nl 0);
  Alcotest.check Alcotest.(array int) "element 2" [| 1; 2 |] (Netlist.incident nl 2);
  Alcotest.check Alcotest.int "degree 4" 2 (Netlist.degree nl 4);
  Alcotest.check Alcotest.int "degree 3" 1 (Netlist.degree nl 3)

let test_iterators_match () =
  let nl = small () in
  for j = 0 to Netlist.n_nets nl - 1 do
    let collected = ref [] in
    Netlist.iter_pins nl j (fun e -> collected := e :: !collected);
    Alcotest.check Alcotest.(list int) "iter_pins matches pins"
      (Array.to_list (Netlist.pins nl j))
      (List.rev !collected)
  done;
  for e = 0 to Netlist.n_elements nl - 1 do
    let collected = ref [] in
    Netlist.iter_incident nl e (fun j -> collected := j :: !collected);
    Alcotest.check Alcotest.(list int) "iter_incident matches incident"
      (Array.to_list (Netlist.incident nl e))
      (List.rev !collected)
  done

let test_is_graph () =
  Alcotest.check Alcotest.bool "multi-pin is not a graph" false (Netlist.is_graph (small ()));
  let g = Netlist.create ~n_elements:3 ~pins:[| [| 0; 1 |]; [| 1; 2 |] |] in
  Alcotest.check Alcotest.bool "two-pin is a graph" true (Netlist.is_graph g)

let test_lightest_element () =
  let nl = small () in
  (* degrees: 0->2, 1->2, 2->2, 3->1, 4->2 *)
  Alcotest.check Alcotest.int "element 3 is lightest" 3 (Netlist.lightest_element nl);
  let tie = Netlist.create ~n_elements:3 ~pins:[| [| 0; 1 |]; [| 0; 2 |]; [| 1; 2 |] |] in
  Alcotest.check Alcotest.int "smallest index on tie" 0 (Netlist.lightest_element tie)

let test_equal () =
  Alcotest.check Alcotest.bool "equal to itself" true (Netlist.equal (small ()) (small ()));
  let other = Netlist.create ~n_elements:5 ~pins:[| [| 0; 1 |] |] in
  Alcotest.check Alcotest.bool "different" false (Netlist.equal (small ()) other)

let invalid_arg_any f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* The exact texts, and which error a netlist with several is refused
   for: nets are checked in order, and within a net a short net first,
   then the first out-of-range pin in input order, then the smallest
   repeated element. *)
let test_create_validation () =
  let refused name n_elements pins expected =
    match Netlist.create ~n_elements ~pins with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument msg -> Alcotest.check Alcotest.string name expected msg
  in
  refused "one pin" 3 [| [| 0 |] |] "Netlist.create: net 0 has fewer than 2 pins";
  refused "pin past the end" 3 [| [| 0; 3 |] |] "Netlist.create: net 0 pin 3 out of range";
  refused "repeat" 3 [| [| 1; 1 |] |] "Netlist.create: net 0 repeats element 1";
  refused "short net" 3 [| [| 0; 1 |]; [| 2 |] |] "Netlist.create: net 1 has fewer than 2 pins";
  refused "empty net" 3 [| [| 0; 1 |]; [||] |] "Netlist.create: net 1 has fewer than 2 pins";
  refused "first out-of-range pin in input order" 3
    [| [| 0; 1 |]; [| 1; 7; -2; 5 |] |]
    "Netlist.create: net 1 pin 7 out of range";
  refused "negative pin" 3 [| [| 2; -1; 0; 3 |] |] "Netlist.create: net 0 pin -1 out of range";
  refused "smallest repeat" 5 [| [| 4; 2; 4; 2; 0 |] |] "Netlist.create: net 0 repeats element 2";
  refused "range before repeat" 3 [| [| 1; 1; 9 |] |] "Netlist.create: net 0 pin 9 out of range";
  refused "earlier net first" 3 [| [| 0; 0 |]; [| 1 |] |] "Netlist.create: net 0 repeats element 0";
  (* Past the insertion-sort length: 29 down to 5, then 29 down to 25. *)
  refused "smallest repeat, long net" 30
    [| [| 0; 1 |]; Array.init 30 (fun i -> 29 - (i mod 25)) |]
    "Netlist.create: net 1 repeats element 25";
  refused "negative element count" (-1) [||] "Netlist.create: negative element count"

(* One net of 10^5 pins in descending order: a quadratic sort needs
   about 5 * 10^9 moves, seconds at least; an n log n one a few
   milliseconds. *)
let test_create_long_net () =
  let n = 100_000 in
  let t0 = Unix.gettimeofday () in
  let nl = Netlist.create ~n_elements:n ~pins:[| Array.init n (fun i -> n - 1 - i) |] in
  let seconds = Unix.gettimeofday () -. t0 in
  Alcotest.check Alcotest.(array int) "sorted" (Array.init n Fun.id) (Netlist.pins nl 0);
  if seconds > 1. then Alcotest.failf "a 10^5-pin net took %.2f s to build" seconds

(* Set-up allocates O(pins).  The netlist keeps about two words per pin
   (the pins and the incidence lists), and the draw adds the buffer of
   [max_pins] slots per net that is trimmed to the pins: 3.95 words per
   pin for NOLA nets of 2-6 pins, 4.4 for two-pin GOLA nets (whose
   buffer is the pin array, but whose pairs come back as a tuple).  A
   per-net array and a copy pass cost about 9.4 for NOLA; an n-word
   index array per net would cost n / 4 = 5000 words per pin here. *)
let allocates_o_pins name generate =
  let before = Test_rng.allocated_words () in
  let nl = generate (Rng.create ~seed:5) in
  let words = Test_rng.allocated_words () -. before in
  let pins = Array.length (Netlist.view nl).pins in
  if words > 5. *. float_of_int pins then
    Alcotest.failf "%s allocated %.0f words for %d pins, over 5 per pin" name words pins

let test_random_nola_allocates_o_pins () =
  allocates_o_pins "random_nola" (fun rng ->
      Netlist.random_nola rng ~elements:20_000 ~nets:50_000 ~min_pins:2 ~max_pins:6)

let test_random_gola_allocates_o_pins () =
  allocates_o_pins "random_gola" (fun rng ->
      Netlist.random_gola rng ~elements:20_000 ~nets:50_000)

(* Generated instances, sampler draws and first cut passes, pinned by
   digest: the text of each instance with its incidence arrays and the
   generator's state after the draw, the values of each sample with the
   state after it, and the cuts and density of a random arrangement in
   each kernel.  Any change to the draws, their order or the arrays
   they build shows here. *)
let generated_digests () =
  let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  let instance rng nl =
    let v = Netlist.view nl in
    String.concat "\n"
      [ Netlist.to_string nl; ints v.inc_start; ints v.incident; Rng.to_state rng ]
  in
  let nola seed (elements, nets, min_pins, max_pins) =
    let rng = Rng.create ~seed in
    ( Printf.sprintf "random_nola %d %d %d-%d" elements nets min_pins max_pins,
      instance rng (Netlist.random_nola rng ~elements ~nets ~min_pins ~max_pins) )
  in
  let gola seed (elements, nets) =
    let rng = Rng.create ~seed in
    ( Printf.sprintf "random_gola %d %d" elements nets,
      instance rng (Netlist.random_gola rng ~elements ~nets) )
  in
  let sample seed ~k ~n =
    let rng = Rng.create ~seed in
    let s = Rng.sample_without_replacement rng ~k ~n in
    (Printf.sprintf "sample k=%d n=%d" k n, ints s ^ "\n" ^ Rng.to_state rng)
  in
  let arrangement name rng nl =
    let a = Arrangement.random rng nl in
    ( "arrangement " ^ name,
      Printf.sprintf "%s\n%d %d" (ints (Arrangement.cuts a)) (Arrangement.density a)
        (Arrangement.sum_of_cuts a) )
  in
  let n600 =
    let rng = Rng.create ~seed:600 in
    let nl = Netlist.random_nola rng ~elements:600 ~nets:1500 ~min_pins:3 ~max_pins:6 in
    arrangement "n600 (span kernel)" rng nl
  in
  let gola15 =
    arrangement "gola15 (table kernel)" (Rng.create ~seed:15)
      (Test_engines.read_sample "gola15.net")
  in
  [
    nola 1 (600, 1500, 3, 6);
    nola 2 (15, 150, 2, 5);
    nola 3 (20, 60, 2, 20);
    nola 4 (5, 30, 5, 5);
    nola 5 (20_000, 50_000, 2, 6);
    gola 6 (2, 10);
    gola 7 (15, 150);
    gola 8 (1000, 4000);
  ]
  @ List.concat_map
      (fun n -> List.map (fun k -> sample (10 + k) ~k ~n) [ 0; 1; n / 2; n ])
      [ 7; 600 ]
  @ [ sample 9 ~k:5 ~n:1_000_000; n600; gola15 ]

let expected_digests =
  [
    ("random_nola 600 1500 3-6", "81b3c92c6ea7e32aa99f63ce69a86d3a");
    ("random_nola 15 150 2-5", "923a2ee86b9ccc5138a8adc8e920e47c");
    ("random_nola 20 60 2-20", "45528eb3426aae10a342186ebb240151");
    ("random_nola 5 30 5-5", "8e08687e0deddbdd6877960965e8f2aa");
    ("random_nola 20000 50000 2-6", "e7b0d5c75e2ef882636d16fcb094a88a");
    ("random_gola 2 10", "791aa121d093f60fd91628fc37b1b013");
    ("random_gola 15 150", "4b74db8b1e569d745296be0265547eb6");
    ("random_gola 1000 4000", "9b5f090aa75396df2330a73534d492e7");
    ("sample k=0 n=7", "184c04071f3d25c48ebc9ced73432001");
    ("sample k=1 n=7", "50bc9dd9491845c3385a6634b9d993c8");
    ("sample k=3 n=7", "5c2c66c80247933d33a23e422c0b8266");
    ("sample k=7 n=7", "374b5965b3c18d242b157f16bde34215");
    ("sample k=0 n=600", "184c04071f3d25c48ebc9ced73432001");
    ("sample k=1 n=600", "4270f5ace92bd451ed6015651d2227d7");
    ("sample k=300 n=600", "e8a7b4814e6e275302501188dd4916a6");
    ("sample k=600 n=600", "84e8e33436ec348b38d32570aa14288c");
    ("sample k=5 n=1000000", "86c5ca107b395f6dcd7968600a7c8a8c");
    ("arrangement n600 (span kernel)", "667ffef08245cbc512c39192542b84d6");
    ("arrangement gola15 (table kernel)", "2b2425606961068ad168a16621c08044");
  ]

let test_generated_digests () =
  let got = generated_digests () in
  Alcotest.check Alcotest.int "cases" (List.length expected_digests) (List.length got);
  List.iter2
    (fun (name, want) (name', s) ->
      Alcotest.check Alcotest.string "case" name name';
      Alcotest.check Alcotest.string name want (Digest.to_hex (Digest.string s)))
    expected_digests got

let test_pins_arrays_copied_on_create () =
  let raw = [| [| 0; 1 |] |] in
  let nl = Netlist.create ~n_elements:2 ~pins:raw in
  raw.(0).(0) <- 1;
  Alcotest.check Alcotest.(array int) "netlist unaffected" [| 0; 1 |] (Netlist.pins nl 0)

let test_random_gola_shape () =
  let rng = Rng.create ~seed:1 in
  let nl = Netlist.random_gola rng ~elements:15 ~nets:150 in
  Alcotest.check Alcotest.int "elements" 15 (Netlist.n_elements nl);
  Alcotest.check Alcotest.int "nets" 150 (Netlist.n_nets nl);
  Alcotest.check Alcotest.bool "all two-pin" true (Netlist.is_graph nl)

let test_random_gola_deterministic () =
  let a = Netlist.random_gola (Rng.create ~seed:5) ~elements:10 ~nets:30 in
  let b = Netlist.random_gola (Rng.create ~seed:5) ~elements:10 ~nets:30 in
  Alcotest.check Alcotest.bool "same seed, same netlist" true (Netlist.equal a b)

let test_random_nola_shape () =
  let rng = Rng.create ~seed:2 in
  let nl = Netlist.random_nola rng ~elements:15 ~nets:150 ~min_pins:2 ~max_pins:5 in
  Alcotest.check Alcotest.int "nets" 150 (Netlist.n_nets nl);
  let saw_multi = ref false in
  for j = 0 to 149 do
    let s = Netlist.net_size nl j in
    Alcotest.check Alcotest.bool "pin count in range" true (s >= 2 && s <= 5);
    if s > 2 then saw_multi := true
  done;
  Alcotest.check Alcotest.bool "some multi-pin nets" true !saw_multi

let test_random_generators_invalid () =
  let rng = Rng.create ~seed:3 in
  invalid_arg_any (fun () -> Netlist.random_gola rng ~elements:1 ~nets:5);
  invalid_arg_any (fun () ->
      Netlist.random_nola rng ~elements:5 ~nets:5 ~min_pins:1 ~max_pins:3);
  invalid_arg_any (fun () ->
      Netlist.random_nola rng ~elements:5 ~nets:5 ~min_pins:3 ~max_pins:2);
  invalid_arg_any (fun () ->
      Netlist.random_nola rng ~elements:5 ~nets:5 ~min_pins:2 ~max_pins:6);
  Alcotest.check_raises "negative NOLA net count"
    (Invalid_argument "Netlist.random_nola: negative net count") (fun () ->
      ignore (Netlist.random_nola rng ~elements:5 ~nets:(-1) ~min_pins:2 ~max_pins:3));
  Alcotest.check_raises "negative GOLA net count"
    (Invalid_argument "Netlist.random_gola: negative net count") (fun () ->
      ignore (Netlist.random_gola rng ~elements:5 ~nets:(-1)))

let test_roundtrip () =
  let nl = small () in
  match Netlist.of_string (Netlist.to_string nl) with
  | Ok nl' -> Alcotest.check Alcotest.bool "roundtrip equal" true (Netlist.equal nl nl')
  | Error msg -> Alcotest.fail msg

let test_parse_comments_and_blanks () =
  let text = "# a comment\n\nnetlist 3 1\n\n# another\nnet 0 2\n" in
  match Netlist.of_string text with
  | Ok nl ->
      Alcotest.check Alcotest.int "elements" 3 (Netlist.n_elements nl);
      Alcotest.check Alcotest.(array int) "net" [| 0; 2 |] (Netlist.pins nl 0)
  | Error msg -> Alcotest.fail msg

let expect_parse_error text =
  match Netlist.of_string text with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error _ -> ()

let test_parse_errors () =
  expect_parse_error "";
  expect_parse_error "bogus 3 1\nnet 0 1\n";
  expect_parse_error "netlist 3 2\nnet 0 1\n";
  expect_parse_error "netlist 3 1\nnet 0 x\n";
  expect_parse_error "netlist 3 1\nedge 0 1\n";
  expect_parse_error "netlist 3 1\nnet 0 7\n" (* out-of-range pin caught by create *)

let prop_roundtrip =
  let gen =
    QCheck.Gen.(
      int_range 2 10 >>= fun elements ->
      int_range 0 20 >>= fun nets ->
      int >|= fun seed ->
      Netlist.random_gola (Rng.create ~seed) ~elements ~nets)
  in
  QCheck.Test.make ~name:"qcheck: to_string/of_string roundtrip"
    (QCheck.make gen)
    (fun nl ->
      match Netlist.of_string (Netlist.to_string nl) with
      | Ok nl' -> Netlist.equal nl nl'
      | Error _ -> false)

(* cut(S) read from the table by its documented layout, against a
   direct count of the nets with pins on both sides of S. *)
let table_matches_recount what nl =
  let n = Netlist.n_elements nl in
  let full = (1 lsl n) - 1 in
  let table = Netlist.cut_table nl in
  Alcotest.check Alcotest.int (what ^ ": 2^(n-1) cells") (2 * max 1 (1 lsl (n - 1)))
    (Bytes.length table);
  let masks =
    Array.init (Netlist.n_nets nl) (fun j ->
        Array.fold_left (fun acc e -> acc lor (1 lsl e)) 0 (Netlist.pins nl j))
  in
  for s = 0 to full do
    let direct =
      Array.fold_left
        (fun acc mk -> if mk land s <> 0 && mk land (full lxor s) <> 0 then acc + 1 else acc)
        0 masks
    in
    let cell = if n > 0 && s land (1 lsl (n - 1)) <> 0 then s lxor full else s in
    let got = Bytes.get_uint16_le table (2 * cell) in
    if got <> direct then Alcotest.failf "%s: cut of set %#x is %d, recount %d" what s got direct
  done

let test_cut_table () =
  let create n pins = Netlist.create ~n_elements:n ~pins in
  table_matches_recount "n = 2" (create 2 [| [| 0; 1 |] |]);
  table_matches_recount "parallel nets" (create 3 [| [| 0; 1 |]; [| 0; 1 |]; [| 0; 1 |]; [| 1; 2 |] |]);
  table_matches_recount "a net on every element"
    (create 5 [| [| 0; 1; 2; 3; 4 |]; [| 0; 4 |]; [| 2; 3 |] |]);
  table_matches_recount "no nets" (create 4 [||]);
  table_matches_recount "one element" (create 1 [||]);
  let rng = Rng.create ~seed:17 in
  List.iter
    (fun n ->
      table_matches_recount (Printf.sprintf "GOLA n = %d" n)
        (Netlist.random_gola rng ~elements:n ~nets:(10 * n));
      table_matches_recount (Printf.sprintf "NOLA n = %d" n)
        (Netlist.random_nola rng ~elements:n ~nets:(10 * n) ~min_pins:2 ~max_pins:(min n 5)))
    [ 2; 3; 7; 12 ];
  table_matches_recount "NOLA n = 16"
    (Netlist.random_nola rng ~elements:16 ~nets:60 ~min_pins:2 ~max_pins:6)

(* The table is built once and kept in the netlist, so every caller
   reads the same bytes; netlists past the table's size are refused. *)
let test_cut_table_memo () =
  let nl = small () in
  Alcotest.check Alcotest.bool "built once" true (Netlist.cut_table nl == Netlist.cut_table nl);
  Alcotest.check Alcotest.bool "per netlist" false
    (Netlist.cut_table nl == Netlist.cut_table (small ()));
  Alcotest.check_raises "21 elements refused"
    (Invalid_argument "Netlist.cut_table: netlist too large") (fun () ->
      ignore (Netlist.cut_table (Netlist.create ~n_elements:21 ~pins:[||])))

(* [fits_cut_table] is the one bound shared by the table, the exact
   solver and [sa_lab info]: 20 elements and 65535 nets fit, one more
   of either does not; at the net bound the fullest cut still fits its
   uint16 cell. *)
let test_fits_cut_table_bound () =
  let parallel n_elements m = Netlist.create ~n_elements ~pins:(Array.make m [| 0; 1 |]) in
  let fits what expected nl =
    Alcotest.check Alcotest.bool what expected (Netlist.fits_cut_table nl)
  in
  fits "20 elements" true (Netlist.create ~n_elements:20 ~pins:[||]);
  fits "21 elements" false (Netlist.create ~n_elements:21 ~pins:[||]);
  let at_bound = parallel 2 0xffff in
  fits "65535 nets" true at_bound;
  Alcotest.check Alcotest.int "cut of {0} at 65535 nets" 0xffff
    (Bytes.get_uint16_le (Netlist.cut_table at_bound) 2);
  let over = parallel 2 0x10000 in
  fits "65536 nets" false over;
  Alcotest.check_raises "65536 nets refused by the table"
    (Invalid_argument "Netlist.cut_table: netlist too large") (fun () ->
      ignore (Netlist.cut_table over));
  match Linarr_exact.optimum over with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "exact solver accepted 65536 nets"

let suite =
  [
    case "sizes" test_sizes;
    case "pins sorted and copied" test_pins_sorted_copy;
    case "net_size" test_net_size;
    case "incidence and degree" test_incident;
    case "iterators match array accessors" test_iterators_match;
    case "is_graph" test_is_graph;
    case "lightest element and ties" test_lightest_element;
    case "structural equality" test_equal;
    case "create validation" test_create_validation;
    case "create sorts a 10^5-pin net fast" test_create_long_net;
    case "random NOLA allocates O(pins)" test_random_nola_allocates_o_pins;
    case "random GOLA allocates O(pins)" test_random_gola_allocates_o_pins;
    case "generated instances and samples pinned by digest" test_generated_digests;
    case "create copies pin arrays" test_pins_arrays_copied_on_create;
    case "random GOLA shape" test_random_gola_shape;
    case "random GOLA deterministic" test_random_gola_deterministic;
    case "random NOLA shape" test_random_nola_shape;
    case "generator argument validation" test_random_generators_invalid;
    case "text roundtrip" test_roundtrip;
    case "parser skips comments/blanks" test_parse_comments_and_blanks;
    case "parser error cases" test_parse_errors;
    case "subset cut table = direct count" test_cut_table;
    case "subset cut table is a per-netlist memo" test_cut_table_memo;
    case "fits_cut_table is the table's bound" test_fits_cut_table_bound;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
