module Heap = struct
  type entry = { at : Q.t; seq : int; key : int }
  type t = E | N of entry * t list

  let le a b = match Q.compare a.at b.at with 0 -> a.seq <= b.seq | c -> c < 0

  let merge a b =
    match (a, b) with
    | E, h | h, E -> h
    | N (x, xs), N (y, ys) -> if le x y then N (x, b :: xs) else N (y, a :: ys)

  let rec merge_pairs = function
    | [] -> E
    | [ h ] -> h
    | a :: b :: rest -> merge (merge a b) (merge_pairs rest)

  let empty = E
  let push h x = merge h (N (x, []))
  let top = function E -> None | N (x, _) -> Some x
  let pop = function E -> E | N (_, hs) -> merge_pairs hs
end

(* Invariant: a slot caching [Some d] has a live entry (d, slot) in the
   heap.  [set] only pushes on change, and [pop_due] idles the slots it
   pops, so the invariant survives both. *)
type t = { cached : Q.t option array; mutable heap : Heap.t }

let create k = { cached = Array.make k None; heap = Heap.empty }

let set t i d =
  if not (Option.equal Q.equal d t.cached.(i)) then begin
    t.cached.(i) <- d;
    Option.iter
      (fun at -> t.heap <- Heap.push t.heap { Heap.at; seq = 0; key = i })
      d
  end

(* drop stale entries off the top; the survivor is the earliest live one *)
let rec live_top t =
  match Heap.top t.heap with
  | None -> None
  | Some e -> (
    match t.cached.(e.Heap.key) with
    | Some d when Q.equal d e.Heap.at -> Some e
    | _ ->
      t.heap <- Heap.pop t.heap;
      live_top t)

let earliest t = Option.map (fun e -> e.Heap.at) (live_top t)

let rec pop_due t ~now f =
  match live_top t with
  | Some e when Q.(e.Heap.at <= now) ->
    t.heap <- Heap.pop t.heap;
    t.cached.(e.Heap.key) <- None;
    f e.Heap.key;
    pop_due t ~now f
  | _ -> ()
