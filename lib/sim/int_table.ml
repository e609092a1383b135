(* Open addressing with linear probing. [vals.(i) == vacant] marks an empty
   slot; otherwise [keys.(i)] is its key. The length of both arrays is a
   power of two, and the table is at most three quarters full: two arrays
   at that load take no more words per key than one at half load. *)
type 'a t = {
  vacant : 'a;
  mutable keys : int array;
  mutable vals : 'a array;
  mutable count : int;
}

let initial = 64

let create ~vacant =
  { vacant; keys = Array.make initial 0; vals = Array.make initial vacant; count = 0 }

(* Fibonacci hashing: the product's bits from 32 up mix the key's low 32
   bits, so dense and strided keys alike spread over the slots. *)
let home mask k = ((k * 0x1E3779B97F4A7C15) lsr 32) land mask

(* The slot holding [k], or the vacant slot where it would go. *)
let rec probe t mask k i =
  if t.vals.(i) == t.vacant || t.keys.(i) = k then i
  else probe t mask k ((i + 1) land mask)

let slot t k =
  let mask = Array.length t.vals - 1 in
  probe t mask k (home mask k)

let find t k = t.vals.(slot t k)

let grow t =
  let keys = t.keys and vals = t.vals in
  let size = 2 * Array.length vals in
  t.keys <- Array.make size 0;
  t.vals <- Array.make size t.vacant;
  Array.iteri
    (fun i v ->
      if v != t.vacant then begin
        let j = slot t keys.(i) in
        t.keys.(j) <- keys.(i);
        t.vals.(j) <- v
      end)
    vals

let replace t k v =
  let i = slot t k in
  if t.vals.(i) != t.vacant then t.vals.(i) <- v
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.count <- t.count + 1;
    if 4 * t.count > 3 * Array.length t.vals then grow t
  end

(* Backward-shift deletion: each later entry of the probe run moves into
   the hole unless its home lies cyclically in (hole, j], where a probe
   from home would no longer reach it. *)
let remove t k =
  let mask = Array.length t.vals - 1 in
  let i = slot t k in
  if t.vals.(i) != t.vacant then begin
    t.count <- t.count - 1;
    let rec shift hole j =
      let j = (j + 1) land mask in
      if t.vals.(j) == t.vacant then t.vals.(hole) <- t.vacant
      else begin
        let h = home mask t.keys.(j) in
        let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
        if stays then shift hole j
        else begin
          t.keys.(hole) <- t.keys.(j);
          t.vals.(hole) <- t.vals.(j);
          shift j j
        end
      end
    in
    shift i i
  end

let length t = t.count

let clear t =
  t.keys <- Array.make initial 0;
  t.vals <- Array.make initial t.vacant;
  t.count <- 0

let fold f t acc =
  let acc = ref acc in
  Array.iteri (fun i v -> if v != t.vacant then acc := f t.keys.(i) v !acc) t.vals;
  !acc

let map f t =
  {
    t with
    keys = Array.copy t.keys;
    vals = Array.map (fun v -> if v == t.vacant then v else f v) t.vals;
  }
