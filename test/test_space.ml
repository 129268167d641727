open Rfdet_mem

let test_zero_fill () =
  let s = Space.create () in
  Alcotest.(check int) "byte" 0 (Space.load_byte s 0x1234);
  Alcotest.(check int) "word" 0 (Space.load_int s 0x8000)

let test_store_load_byte () =
  let s = Space.create () in
  Space.store_byte s 100 0xAB;
  Alcotest.(check int) "read back" 0xAB (Space.load_byte s 100);
  Space.store_byte s 100 0x3FF;
  Alcotest.(check int) "truncated to byte" 0xFF (Space.load_byte s 100)

let test_store_load_word () =
  let s = Space.create () in
  Space.store_int s 4096 123456789;
  Alcotest.(check int) "word round trip" 123456789 (Space.load_int s 4096);
  Space.store_i64 s 200 (-1L);
  Alcotest.(check int64) "negative" (-1L) (Space.load_i64 s 200)

let test_word_crossing_page () =
  let s = Space.create () in
  let addr = Page.size - 3 in
  Space.store_i64 s addr 0x0102030405060708L;
  Alcotest.(check int64) "cross-page word" 0x0102030405060708L
    (Space.load_i64 s addr);
  Alcotest.(check int) "first byte" 0x08 (Space.load_byte s addr)

let test_little_endian () =
  let s = Space.create () in
  Space.store_i64 s 0 0x1122334455667788L;
  Alcotest.(check int) "LSB first" 0x88 (Space.load_byte s 0);
  Alcotest.(check int) "MSB last" 0x11 (Space.load_byte s 7)

let test_fork_isolation () =
  let parent = Space.create () in
  Space.store_int parent 0 111;
  let child = Space.fork parent in
  Alcotest.(check int) "child inherits" 111 (Space.load_int child 0);
  Space.store_int child 0 222;
  Alcotest.(check int) "child sees own write" 222 (Space.load_int child 0);
  Alcotest.(check int) "parent unaffected" 111 (Space.load_int parent 0);
  Space.store_int parent 8 333;
  Alcotest.(check int) "parent write invisible to child" 0
    (Space.load_int child 8)

let test_fork_cow_counting () =
  let parent = Space.create () in
  for i = 0 to 3 do
    Space.store_int parent (i * Page.size) i
  done;
  Alcotest.(check int) "parent owns 4" 4 (Space.owned_pages parent);
  let child = Space.fork parent in
  Alcotest.(check int) "all shared after fork (child)" 0
    (Space.owned_pages child);
  Alcotest.(check int) "all shared after fork (parent)" 0
    (Space.owned_pages parent);
  Space.store_int child 0 9;
  Alcotest.(check int) "child owns its copy" 1 (Space.owned_pages child);
  (* The parent's frame for page 0 is again exclusively referenced. *)
  Alcotest.(check int) "parent regains exclusivity" 1 (Space.owned_pages parent);
  Alcotest.(check int) "mapped pages unchanged" 4 (Space.mapped_pages child)

let test_string_roundtrip () =
  let s = Space.create () in
  Space.blit_string s ~addr:5000 "hello, dlrc";
  Alcotest.(check string) "string" "hello, dlrc"
    (Space.read_string s ~addr:5000 ~len:11)

let test_snapshot_isolated () =
  let s = Space.create () in
  Space.store_byte s 10 1;
  let snap = Bytes.create Page.size in
  Space.snapshot_page_into s 0 snap;
  Space.store_byte s 10 2;
  Alcotest.(check char) "snapshot frozen" '\001' (Bytes.get snap 10);
  Alcotest.(check int) "live updated" 2 (Space.load_byte s 10)

let test_write_page () =
  let s = Space.create () in
  let data = Bytes.make Page.size 'x' in
  Space.write_page s 3 data;
  Alcotest.(check int) "contents" (Char.code 'x')
    (Space.load_byte s ((3 * Page.size) + 17));
  Alcotest.check_raises "size check"
    (Invalid_argument "Space.write_page: wrong page size") (fun () ->
      Space.write_page s 0 (Bytes.create 7))

let test_protection () =
  let s = Space.create () in
  Alcotest.(check bool) "default rw" true (Space.protection s 0 = Space.Prot_rw);
  Space.protect s 0 Space.Prot_read_only;
  Alcotest.(check bool) "read only" true
    (Space.protection s 0 = Space.Prot_read_only);
  Space.protect s 1 Space.Prot_none;
  Space.clear_protections s;
  Alcotest.(check bool) "cleared" true (Space.protection s 1 = Space.Prot_rw)

let test_cache_survives_fork () =
  (* Warm the parent's page-handle cache, fork, then check copy-on-write
     isolation in both directions — a stale cached frame would leak
     writes across the fork. *)
  let parent = Space.create () in
  Space.store_byte parent 0 1;
  (* warm the cache on page 0 via both a read and a write *)
  Alcotest.(check int) "pre-fork read" 1 (Space.load_byte parent 0);
  Space.store_byte parent 1 2;
  let child = Space.fork parent in
  (* child's first read goes through its own (cold) cache *)
  Alcotest.(check int) "child inherits" 1 (Space.load_byte child 0);
  (* parent writes through its warmed cache; must CoW, not mutate the
     shared frame the child still references *)
  Space.store_byte parent 0 9;
  Alcotest.(check int) "child isolated from parent write" 1
    (Space.load_byte child 0);
  (* now warm the child's cache, write, and check the parent *)
  Alcotest.(check int) "child re-read" 2 (Space.load_byte child 1);
  Space.store_byte child 1 7;
  Alcotest.(check int) "parent isolated from child write" 2
    (Space.load_byte parent 1);
  Alcotest.(check int) "parent sees own write" 9 (Space.load_byte parent 0)

let test_cache_sibling_isolation () =
  (* Two children forked from the same parent, caches warmed on the same
     page: each child's writes stay private. *)
  let parent = Space.create () in
  Space.store_byte parent 100 5;
  let a = Space.fork parent in
  let b = Space.fork parent in
  Alcotest.(check int) "a inherits" 5 (Space.load_byte a 100);
  Alcotest.(check int) "b inherits" 5 (Space.load_byte b 100);
  Space.store_byte a 100 6;
  Space.store_byte b 100 7;
  Alcotest.(check int) "a private" 6 (Space.load_byte a 100);
  Alcotest.(check int) "b private" 7 (Space.load_byte b 100);
  Alcotest.(check int) "parent untouched" 5 (Space.load_byte parent 100)

let test_string_multi_page () =
  (* A blit spanning three pages must land byte-exact, and reads across
     unmapped gaps must zero-fill. *)
  let s = Space.create () in
  let len = (2 * Page.size) + 100 in
  let payload = String.init len (fun i -> Char.chr (i land 0xff)) in
  let addr = Page.size - 50 in
  Space.blit_string s ~addr payload;
  Alcotest.(check string) "multi-page round trip" payload
    (Space.read_string s ~addr ~len);
  Alcotest.(check int) "byte before is zero" 0 (Space.load_byte s (addr - 1));
  Alcotest.(check int) "byte after is zero" 0 (Space.load_byte s (addr + len));
  (* read spanning mapped + unmapped pages: the unmapped tail is zeros
     and reading must not materialize those pages *)
  let mapped_before = Space.mapped_pages s in
  let r = Space.read_string s ~addr:(addr + len - 4) ~len:20 in
  Alcotest.(check string) "mapped prefix"
    (String.sub payload (len - 4) 4)
    (String.sub r 0 4);
  Alcotest.(check string) "unmapped tail zero-filled"
    (String.make 16 '\000')
    (String.sub r 4 16);
  Alcotest.(check int) "read does not materialize pages" mapped_before
    (Space.mapped_pages s)

let prop_byte_roundtrip =
  QCheck2.Test.make ~name:"space: random byte stores read back" ~count:200
    QCheck2.Gen.(list (pair (int_bound 100_000) (int_bound 255)))
    (fun writes ->
      let s = Space.create () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (addr, v) ->
          Space.store_byte s addr v;
          Hashtbl.replace model addr v)
        writes;
      Hashtbl.fold
        (fun addr v acc -> acc && Space.load_byte s addr = v)
        model true)

let prop_fork_snapshot_semantics =
  QCheck2.Test.make ~name:"space: fork is a point-in-time snapshot" ~count:100
    QCheck2.Gen.(
      pair
        (list (pair (int_bound 20_000) (int_bound 255)))
        (list (pair (int_bound 20_000) (int_bound 255))))
    (fun (before, after) ->
      let parent = Space.create () in
      List.iter (fun (a, v) -> Space.store_byte parent a v) before;
      let child = Space.fork parent in
      List.iter (fun (a, v) -> Space.store_byte parent a (v lxor 0xFF)) after;
      (* The child must still see exactly the pre-fork contents. *)
      let model = Hashtbl.create 64 in
      List.iter (fun (a, v) -> Hashtbl.replace model a v) before;
      Hashtbl.fold
        (fun addr v acc -> acc && Space.load_byte child addr = v)
        model true)

let suites =
  [
    ( "space",
      [
        Alcotest.test_case "zero fill" `Quick test_zero_fill;
        Alcotest.test_case "byte round trip" `Quick test_store_load_byte;
        Alcotest.test_case "word round trip" `Quick test_store_load_word;
        Alcotest.test_case "cross-page word" `Quick test_word_crossing_page;
        Alcotest.test_case "little endian" `Quick test_little_endian;
        Alcotest.test_case "fork isolation" `Quick test_fork_isolation;
        Alcotest.test_case "fork COW accounting" `Quick test_fork_cow_counting;
        Alcotest.test_case "string round trip" `Quick test_string_roundtrip;
        Alcotest.test_case "handle cache survives fork" `Quick
          test_cache_survives_fork;
        Alcotest.test_case "handle cache sibling isolation" `Quick
          test_cache_sibling_isolation;
        Alcotest.test_case "multi-page string ops" `Quick test_string_multi_page;
        Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolated;
        Alcotest.test_case "write_page" `Quick test_write_page;
        Alcotest.test_case "protection" `Quick test_protection;
        QCheck_alcotest.to_alcotest prop_byte_roundtrip;
        QCheck_alcotest.to_alcotest prop_fork_snapshot_semantics;
      ] );
  ]
