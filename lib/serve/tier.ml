type t = {
  lru : (Cache.key, Jpeg2000.Tile.t) Lru.t;
  tr_ps : int;
  mutable transfers : int;
  mutable invalidations : int;
}

let create ?hash ~capacity ~transfer_ps () =
  if capacity < 1 then invalid_arg "Fleet.Tier.create: capacity < 1";
  if transfer_ps < 0 then invalid_arg "Fleet.Tier.create: transfer_ps < 0";
  {
    lru = Lru.create ?hash ~capacity ();
    tr_ps = transfer_ps;
    transfers = 0;
    invalidations = 0;
  }

let capacity t = Lru.capacity t.lru
let length t = Lru.length t.lru
let transfer_ps t = t.tr_ps

let find t key =
  match Lru.find t.lru key with
  | Some tile ->
    t.transfers <- t.transfers + 1;
    Some tile
  | None -> None

let add t key tile = Lru.add t.lru key tile

let invalidate_stream t ~digest ~length =
  let dropped =
    Lru.remove_where t.lru (fun (k : Cache.key) ->
        k.Cache.digest = digest && k.Cache.length = length)
  in
  t.invalidations <- t.invalidations + dropped;
  dropped

let stats t = Lru.stats t.lru
let transfers t = t.transfers
let transferred_ps t = t.transfers * t.tr_ps
let invalidations t = t.invalidations
