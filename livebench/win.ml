(* Window accounting over the program's own counters and histograms.

   Counters come from [Runtime.node_counters]; histogram buckets from the
   cumulative bucket lines of [Runtime.prometheus]. Both are cumulative
   per node incarnation, so a measured window is the difference of two
   snapshots. A node crashed inside the window contributes its closed
   segment (window start to crash) plus its fresh incarnation (zero to
   window end). Percentiles computed here therefore never include
   warm-up samples. *)

module Runtime = Abcast_live.Runtime

(* One series of one node: bucket counts keyed by the exported upper
   bound (the string, so equal bounds always match), sum and count. *)
type hist = { buckets : (string, int) Hashtbl.t; mutable sum : float; mutable n : int }

type snap = { counters : (string * int) list; hists : (string, hist) Hashtbl.t }

let empty_snap () = { counters = []; hists = Hashtbl.create 1 }
let new_hist () = { buckets = Hashtbl.create 32; sum = 0.; n = 0 }

(* [name{labels} value] -> (name, labels, value) *)
let parse_line line =
  match (String.index_opt line '{', String.rindex_opt line '}') with
  | Some i, Some j when j > i -> (
    let name = String.sub line 0 i in
    let labels =
      String.split_on_char ',' (String.sub line (i + 1) (j - i - 1))
      |> List.filter_map (fun kv ->
             match String.index_opt kv '=' with
             | Some e ->
               let v = String.sub kv (e + 1) (String.length kv - e - 1) in
               let v =
                 if String.length v >= 2 then String.sub v 1 (String.length v - 2)
                 else v
               in
               Some (String.sub kv 0 e, v)
             | None -> None)
    in
    let rest = String.trim (String.sub line (j + 1) (String.length line - j - 1)) in
    match float_of_string_opt rest with
    | Some v -> Some (name, labels, v)
    | None -> None)
  | _ -> None

let strip_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  if ls > lf && String.sub s (ls - lf) lf = suf then Some (String.sub s 0 (ls - lf))
  else None

(* Per-node histograms of one Prometheus dump: cumulative bucket lines
   turned back into per-bucket counts. *)
let parse_hists text n =
  let per_node = Array.init n (fun _ -> Hashtbl.create 16) in
  let cum = Hashtbl.create 64 in
  let get node base =
    let tbl = per_node.(node) in
    match Hashtbl.find_opt tbl base with
    | Some h -> h
    | None ->
      let h = new_hist () in
      Hashtbl.add tbl base h;
      h
  in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match parse_line line with
        | None -> ()
        | Some (name, labels, v) -> (
          match Option.bind (List.assoc_opt "node" labels) int_of_string_opt with
          | Some node when node >= 0 && node < n -> (
            match strip_suffix name "_bucket" with
            | Some base -> (
              match List.assoc_opt "le" labels with
              | Some "+Inf" | None -> ()
              | Some le ->
                let h = get node base in
                let prev = Option.value ~default:0 (Hashtbl.find_opt cum (node, base)) in
                let c = int_of_float v in
                Hashtbl.replace h.buckets le (c - prev);
                Hashtbl.replace cum (node, base) c)
            | None -> (
              match strip_suffix name "_sum" with
              | Some base when Hashtbl.mem per_node.(node) base ->
                (get node base).sum <- v
              | _ -> (
                match strip_suffix name "_count" with
                | Some base when Hashtbl.mem per_node.(node) base ->
                  (get node base).n <- int_of_float v
                | _ -> ())))
          | _ -> ()))
    (String.split_on_char '\n' text);
  per_node

let take_all rt =
  let n = Runtime.n rt in
  let hists = parse_hists (Runtime.prometheus rt) n in
  Array.init n (fun i ->
      if Runtime.is_up rt i then
        Some { counters = Runtime.node_counters rt i; hists = hists.(i) }
      else None)

(* The difference accumulated over a window, summed across nodes. *)
type delta = { ctr : (string, int) Hashtbl.t; hst : (string, hist) Hashtbl.t }

type t = { base : snap array; acc : delta }

let add_diff acc ~(from : snap) ~(upto : snap) =
  List.iter
    (fun (k, v) ->
      let v0 = Option.value ~default:0 (List.assoc_opt k from.counters) in
      Hashtbl.replace acc.ctr k
        (Option.value ~default:0 (Hashtbl.find_opt acc.ctr k) + v - v0))
    upto.counters;
  Hashtbl.iter
    (fun base (h : hist) ->
      let h0 = Hashtbl.find_opt from.hists base in
      let d =
        match Hashtbl.find_opt acc.hst base with
        | Some d -> d
        | None ->
          let d = new_hist () in
          Hashtbl.add acc.hst base d;
          d
      in
      Hashtbl.iter
        (fun le c ->
          let c0 =
            match h0 with
            | Some h0 -> Option.value ~default:0 (Hashtbl.find_opt h0.buckets le)
            | None -> 0
          in
          Hashtbl.replace d.buckets le
            (Option.value ~default:0 (Hashtbl.find_opt d.buckets le) + c - c0))
        h.buckets;
      let s0, n0 = match h0 with Some h0 -> (h0.sum, h0.n) | None -> (0., 0) in
      d.sum <- d.sum +. h.sum -. s0;
      d.n <- d.n + h.n - n0)
    upto.hists

let start rt =
  let snaps = take_all rt in
  {
    base = Array.map (function Some s -> s | None -> empty_snap ()) snaps;
    acc = { ctr = Hashtbl.create 64; hst = Hashtbl.create 16 };
  }

(* Close node [i]'s segment before it is crashed; its next incarnation
   counts from zero. *)
let close_node t rt i =
  (match (take_all rt).(i) with
  | Some s -> add_diff t.acc ~from:t.base.(i) ~upto:s
  | None -> ());
  t.base.(i) <- empty_snap ()

let finish t rt =
  Array.iteri
    (fun i s ->
      match s with Some s -> add_diff t.acc ~from:t.base.(i) ~upto:s | None -> ())
    (take_all rt);
  t.acc

let counter d k = Option.value ~default:0 (Hashtbl.find_opt d.ctr k)

let counter_prefix d prefix =
  let lp = String.length prefix in
  Hashtbl.fold
    (fun k v acc ->
      if String.length k >= lp && String.sub k 0 lp = prefix then acc + v else acc)
    d.ctr 0

let hist d series = Hashtbl.find_opt d.hst ("abcast_" ^ series)
let count d series = match hist d series with Some h -> h.n | None -> 0

let mean d series =
  match hist d series with
  | Some h when h.n > 0 -> h.sum /. float_of_int h.n
  | _ -> 0.

(* Nearest-rank percentile over the windowed buckets, reported at the
   bucket's geometric midpoint (the histogram's documented estimate). *)
let percentile d series p =
  match hist d series with
  | None -> 0.
  | Some h ->
    let bs =
      Hashtbl.fold
        (fun le c acc ->
          match float_of_string_opt le with
          | Some b when c > 0 -> (b, c) :: acc
          | _ -> acc)
        h.buckets []
      |> List.sort compare
    in
    let total = List.fold_left (fun a (_, c) -> a + c) 0 bs in
    if total = 0 then 0.
    else
      let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int total))) in
      let rec walk cum = function
        | [] -> 0.
        | (b, c) :: rest -> if cum + c >= rank then b /. sqrt 1.04 else walk (cum + c) rest
      in
      walk 0 bs
