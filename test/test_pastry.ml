(* Tests for the Pastry substrate: digit machinery, routing tables with
   proximity neighbor selection, leaf sets and prefix routing. Routes are
   [Pastry.Routable]'s walk; the conformance suite (test_routing.ml) checks
   that every route ends at the root with exact hop and latency accounting. *)

module Id = Hashid.Id
module Net = Pastry.Network
module R = Pastry.Routable

let space16 = Id.space ~bits:16

let make ?(hosts = 120) ?(space = space16) seed =
  let rng = Prng.Rng.create ~seed in
  let lat = Topology.Transit_stub.generate ~hosts rng in
  let net = Net.build ~space ~hosts:(Array.init hosts (fun i -> i)) ~lat ~rng in
  (lat, net)

(* --- digits --------------------------------------------------------------- *)

let test_digit4 () =
  let sp = Id.space ~bits:16 in
  let x = Id.of_int sp 0xA3F7 in
  Alcotest.(check int) "digit 0" 0xA (Id.digit4 sp x 0);
  Alcotest.(check int) "digit 1" 0x3 (Id.digit4 sp x 1);
  Alcotest.(check int) "digit 2" 0xF (Id.digit4 sp x 2);
  Alcotest.(check int) "digit 3" 0x7 (Id.digit4 sp x 3);
  Alcotest.(check int) "count" 4 (Id.digit_count4 sp);
  Alcotest.check_raises "out of range" (Invalid_argument "Id.digit4: index out of range")
    (fun () -> ignore (Id.digit4 sp x 4))

let test_digit4_odd_nibbles () =
  (* 12-bit space: 3 digits, stored in 2 bytes with the top nibble masked *)
  let sp = Id.space ~bits:12 in
  let x = Id.of_int sp 0xABC in
  Alcotest.(check int) "count" 3 (Id.digit_count4 sp);
  Alcotest.(check int) "digit 0" 0xA (Id.digit4 sp x 0);
  Alcotest.(check int) "digit 1" 0xB (Id.digit4 sp x 1);
  Alcotest.(check int) "digit 2" 0xC (Id.digit4 sp x 2)

let test_shared_prefix () =
  let _, net = make 1 in
  let sp = Net.space net in
  let a = Id.of_int sp 0xAB10 and b = Id.of_int sp 0xAB73 in
  Alcotest.(check int) "two shared digits" 2 (Net.shared_prefix_len net a b);
  Alcotest.(check int) "identical ids" 4 (Net.shared_prefix_len net a a);
  let c = Id.of_int sp 0x1B10 in
  Alcotest.(check int) "nothing shared" 0 (Net.shared_prefix_len net a c)

(* --- structure -------------------------------------------------------------- *)

let test_build_validation () =
  let rng = Prng.Rng.create ~seed:2 in
  let lat = Topology.Transit_stub.generate ~hosts:4 rng in
  Alcotest.check_raises "width not multiple of 4"
    (Invalid_argument "Pastry.Network.build: identifier width must be a multiple of 4")
    (fun () ->
      ignore (Net.build ~space:(Id.space ~bits:10) ~hosts:[| 0; 1 |] ~lat ~rng));
  Alcotest.check_raises "empty" (Invalid_argument "Pastry.Network.build: empty network")
    (fun () -> ignore (Net.build ~space:space16 ~hosts:[||] ~lat ~rng))

let test_table_entries_share_prefix () =
  let _, net = make 3 in
  let sp = Net.space net in
  for node = 0 to Net.size net - 1 do
    for row = 0 to Net.rows net - 1 do
      for col = 0 to 15 do
        match Net.table_entry net node ~row ~col with
        | None -> ()
        | Some entry ->
            let nid = Net.id net node and eid = Net.id net entry in
            Alcotest.(check bool) "shares first `row` digits" true
              (Net.shared_prefix_len net nid eid >= row);
            Alcotest.(check int) "next digit is the column" col (Id.digit4 sp eid row)
      done
    done
  done

let test_leaf_set_is_numeric_neighbourhood () =
  let _, net = make 4 in
  let n = Net.size net in
  for node = 0 to n - 1 do
    let leaves = Net.leaf_set net node in
    Alcotest.(check bool) "non-empty" true (Array.length leaves > 0);
    Alcotest.(check bool) "bounded" true (Array.length leaves <= 16);
    Alcotest.(check bool) "self not a leaf" true (not (Array.exists (( = ) node) leaves));
    (* contains both ring neighbours *)
    Alcotest.(check bool) "successor present" true
      (Array.exists (( = ) ((node + 1) mod n)) leaves);
    Alcotest.(check bool) "predecessor present" true
      (Array.exists (( = ) ((node + n - 1) mod n)) leaves)
  done

let test_pns_prefers_close_nodes () =
  (* the mean routing-table link must be materially below the mean host
     distance: that is what proximity neighbor selection buys *)
  let lat, net = make ~hosts:400 ~space:Id.sha1_space 5 in
  let rng = Prng.Rng.create ~seed:6 in
  let table_link = Net.mean_table_link_latency net ~samples:2000 rng in
  let global = Topology.Latency.mean_host_latency lat rng in
  Alcotest.(check bool) "PNS links cheaper than average" true (table_link < 0.75 *. global)

let test_root_of_key () =
  let _, net = make 7 in
  let sp = Net.space net in
  (* the root is the numerically closest node: for a node's own id it is the
     node itself *)
  for node = 0 to Net.size net - 1 do
    Alcotest.(check int) "own id roots at self" node (Net.root_of_key net (Net.id net node))
  done;
  (* a key just above a node's id roots at that node or its successor *)
  let node = 10 in
  let key = Id.succ sp (Net.id net node) in
  let root = Net.root_of_key net key in
  Alcotest.(check bool) "adjacent root" true (root = node || root = (node + 1) mod Net.size net)

(* --- routing ------------------------------------------------------------------- *)

let test_route_zero_hops_at_root () =
  let _, net = make 10 in
  let node = 3 in
  let r = R.route (R.make net) ~origin:node ~key:(Net.id net node) in
  Alcotest.(check int) "stays" node r.Routing.destination;
  Alcotest.(check int) "no hops" 0 r.Routing.hop_count

let test_route_logarithmic_hops () =
  let _, net = make ~hosts:1024 ~space:Id.sha1_space 11 in
  let r = R.make net in
  let rng = Prng.Rng.create ~seed:12 in
  let acc = ref 0 in
  let trials = 400 in
  for _ = 1 to trials do
    let key = Id.random Id.sha1_space rng in
    let origin = Prng.Rng.int rng 1024 in
    acc := !acc + (R.route r ~origin ~key).Routing.hop_count
  done;
  let mean = float_of_int !acc /. float_of_int trials in
  (* log16(1024) = 2.5; generous band *)
  Alcotest.(check bool) "hops ~ log16 n" true (mean > 1.2 && mean < 4.5)

(* --- qcheck --------------------------------------------------------------------- *)

let prop_route_correct =
  QCheck.Test.make ~name:"pastry routes end at the numerically closest node" ~count:25
    QCheck.(pair small_nat (int_range 8 100))
    (fun (seed, n) ->
      let rng = Prng.Rng.create ~seed:(seed + 50) in
      let lat = Topology.Transit_stub.generate ~hosts:n rng in
      let net = Net.build ~space:Id.sha1_space ~hosts:(Array.init n (fun i -> i)) ~lat ~rng in
      let r = R.make net in
      let ok = ref true in
      for _ = 1 to 25 do
        let key = Id.random Id.sha1_space rng in
        let origin = Prng.Rng.int rng n in
        if (R.route r ~origin ~key).Routing.destination <> Net.root_of_key net key then ok := false
      done;
      !ok)

let () =
  Alcotest.run "pastry"
    [
      ( "digits",
        [
          Alcotest.test_case "digit4" `Quick test_digit4;
          Alcotest.test_case "odd nibbles" `Quick test_digit4_odd_nibbles;
          Alcotest.test_case "shared prefix" `Quick test_shared_prefix;
        ] );
      ( "structure",
        [
          Alcotest.test_case "validation" `Quick test_build_validation;
          Alcotest.test_case "table entries share prefix" `Quick test_table_entries_share_prefix;
          Alcotest.test_case "leaf sets" `Quick test_leaf_set_is_numeric_neighbourhood;
          Alcotest.test_case "PNS locality" `Quick test_pns_prefers_close_nodes;
          Alcotest.test_case "root of key" `Quick test_root_of_key;
        ] );
      ( "routing",
        [
          Alcotest.test_case "zero hops at root" `Quick test_route_zero_hops_at_root;
          Alcotest.test_case "logarithmic hops" `Slow test_route_logarithmic_hops;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_route_correct ]);
    ]
