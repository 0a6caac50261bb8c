module Wire = Abcast_util.Wire

let encode payloads : Abcast_consensus.Consensus_intf.value =
  Wire.to_string ~cap:4096
    (fun w sorted ->
      Wire.write_uvarint w (List.length sorted);
      List.iter (Payload.write w) sorted)
    (Payload.sort_batch payloads)

(* Scratch writers for the proposal hot path: they keep their
   high-water-mark allocation across calls, so a proposal costs one
   output-string allocation and zero growth copies once warm. Each
   protocol instance owns one: the live runtime runs its nodes on
   separate threads, and a shared buffer would interleave their
   encodings. *)
type scratch = { out : Wire.writer; body : Wire.writer }

let scratch () =
  { out = Wire.writer ~cap:4096 (); body = Wire.writer ~cap:4096 () }

(* Bounded variant for adaptive batching: the batch is the whole sorted
   backlog, cut at a payload boundary once the encoded bodies exceed
   [max_bytes]. Bodies go through a second writer so the count prefix
   (whose varint width depends on how many payloads survive the cut) can
   be written first in the final assembly. At least one payload is
   always included (a single oversized payload must still be
   deliverable). *)
let encode_sorted_bounded s ~max_bytes payloads =
  let body = s.body in
  Wire.clear body;
  let rec go n acc = function
    | [] -> (n, List.rev acc, [])
    | (p : Payload.t) :: rest ->
      let mark = Wire.length body in
      Payload.write body p;
      if n > 0 && Wire.length body > max_bytes then begin
        Wire.truncate body mark;
        (n, List.rev acc, p :: rest)
      end
      else go (n + 1) (p :: acc) rest
  in
  let n, included, excluded = go 0 [] payloads in
  Wire.clear s.out;
  Wire.write_uvarint s.out n;
  Wire.append_writer s.out ~src:body;
  (Wire.contents s.out, included, excluded)

let decode value : Payload.t list =
  Wire.of_string_exn Payload.read_list value

let decode_opt value : Payload.t list option =
  Wire.of_string_opt Payload.read_list value

let size = String.length
