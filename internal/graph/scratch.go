package graph

// This file holds allocation-avoiding scratch structures of the mining hot
// paths: an epoch-stamped vertex-set dedup table (the directed miner's) and
// a slab arena for stored occurrences (both miners'). See DESIGN.md §13
// "Mining memory layout".

// VSetDedup is an exact, epoch-stamped hash set of fixed-width vertex sets
// (the directed beam miner's per-level "seen candidate sets"). Keys live in a flat
// arena; table slots carry the epoch of their last write, so advancing the
// epoch resets the set in O(1) with no map clear and no re-zeroing. Probes
// compare full keys — a hash collision can cost a probe, never a wrong
// dedup — so a miner's output is exactly that of the map[string]bool it
// replaces.
type VSetDedup struct {
	slots []vsetSlot
	mask  uint32
	keys  []int32 // flat arena of consecutive k-tuples
	k     int
	n     int    // live keys this epoch
	epoch uint32 // 0 is never a live epoch (slot zero value is dead)
}

type vsetSlot struct {
	epoch uint32
	ref   uint32 // key index + 1
}

// Reset starts a new epoch for sets of width k, invalidating every slot.
func (d *VSetDedup) Reset(k int) {
	d.k = k
	d.n = 0
	d.keys = d.keys[:0]
	d.epoch++
	if len(d.slots) == 0 {
		d.slots = make([]vsetSlot, 1024)
		d.mask = 1023
	}
}

// vsetHash mixes a vertex set with FNV-1a over its int32 words.
//
// alloc-budget: 0
func vsetHash(vs []int32) uint32 {
	h := uint32(2166136261)
	for _, v := range vs {
		h = (h ^ uint32(v)) * 16777619
	}
	return h
}

// Insert adds vs (width k, as set by Reset) and reports whether it was new
// this epoch. Steady state performs zero allocations; the arena and table
// grow geometrically.
func (d *VSetDedup) Insert(vs []int32) bool {
	if 2*(d.n+1) > len(d.slots) {
		d.rehash()
	}
	h := vsetHash(vs)
	i := h & d.mask
	for {
		sl := d.slots[i]
		if sl.epoch != d.epoch || sl.ref == 0 {
			break // dead slot: vs is new
		}
		if d.equalAt(int(sl.ref-1), vs) {
			return false
		}
		i = (i + 1) & d.mask
	}
	d.keys = append(d.keys, vs...)
	d.n++
	d.slots[i] = vsetSlot{epoch: d.epoch, ref: uint32(d.n)}
	return true
}

// equalAt compares stored key idx against vs.
//
// alloc-budget: 0
func (d *VSetDedup) equalAt(idx int, vs []int32) bool {
	key := d.keys[idx*d.k : idx*d.k+d.k]
	for i := range vs {
		if key[i] != vs[i] {
			return false
		}
	}
	return true
}

// rehash doubles the table and reinserts the live keys.
func (d *VSetDedup) rehash() {
	old := d.slots
	d.slots = make([]vsetSlot, 2*len(old))
	d.mask = uint32(len(d.slots) - 1)
	for _, sl := range old {
		if sl.epoch != d.epoch || sl.ref == 0 {
			continue
		}
		key := d.keys[int(sl.ref-1)*d.k : int(sl.ref-1)*d.k+d.k]
		i := vsetHash(key) & d.mask
		for d.slots[i].epoch == d.epoch && d.slots[i].ref != 0 {
			i = (i + 1) & d.mask
		}
		d.slots[i] = sl
	}
}

// OccArena carves fixed-width occurrence slices out of slab-allocated
// blocks: one allocation per slab instead of one per stored occurrence.
// Carved slices are capacity-capped, so a later slab growth can never
// alias them.
type OccArena struct {
	slab []int32
	used int
}

// Take returns a new slice holding a copy of vs, carved from the arena.
func (a *OccArena) Take(vs []int32) []int32 {
	k := len(vs)
	if a.used+k > len(a.slab) {
		size := 4096
		if k > size {
			size = k
		}
		a.slab = make([]int32, size)
		a.used = 0
	}
	out := a.slab[a.used : a.used+k : a.used+k]
	a.used += k
	copy(out, vs)
	return out
}
