package core

// entry is one slot of a list: the PCB's key stored inline next to the
// PCB pointer, so a scan compares keys in contiguous memory and
// dereferences only the PCB that matches. wild caches Key.IsWildcard in
// the padding between the 12-byte key and the pointer, so it costs no
// space (a slot is 24 bytes on 64-bit platforms).
type entry struct {
	key  Key
	wild bool
	pcb  *PCB
}

// list is the PCB list every list-based demuxer shares: the BSD, MTF and
// SR lists, the hash chains, and the listener lists. Slots live in one
// contiguous slice whose END is the logical front, so inserting at the
// front is an append and scans walk backwards. Front insertion preserves
// the BSD property that young connections sit near the front. The zero
// value is an empty list.
type list struct {
	e []entry
}

// len returns the number of PCBs on the list.
func (l *list) len() int { return len(l.e) }

// pushFront inserts a PCB at the logical front.
func (l *list) pushFront(p *PCB) {
	l.e = append(l.e, entry{key: p.Key, wild: p.Key.IsWildcard(), pcb: p})
}

// find returns the slot holding exactly key k (-1 if none) and the number
// of PCBs examined to decide, walking from the front. It compares keys
// with ==, which for the exact-keyed PCBs on a hash chain is the whole of
// Match.
//
//demux:hotpath
func (l *list) find(k Key) (slot, examined int) {
	e := l.e
	for i := len(e) - 1; i >= 0; i-- {
		if e[i].key == k {
			return i, len(e) - i
		}
	}
	return -1, len(e)
}

// containsExact reports whether a PCB with exactly key k is present.
func (l *list) containsExact(k Key) bool {
	i, _ := l.find(k)
	return i >= 0
}

// remove deletes the PCB with exactly key k, keeping the order of the
// rest, and returns it (nil if absent).
func (l *list) remove(k Key) *PCB {
	i, _ := l.find(k)
	if i < 0 {
		return nil
	}
	p := l.e[i].pcb
	last := len(l.e) - 1
	copy(l.e[i:], l.e[i+1:])
	l.e[last] = entry{} // drop the PCB reference from the spare capacity
	l.e = l.e[:last]
	return p
}

// moveToFront moves slot i to the logical front, keeping the order of the
// rest.
//
//demux:hotpath
func (l *list) moveToFront(i int) {
	e := l.e[i]
	copy(l.e[i:], l.e[i+1:])
	l.e[len(l.e)-1] = e
}

// scan walks the list from the front looking for the best match for
// packet key k. It stops at the first exact match; wildcard candidates
// force a full walk, exactly like the historic in_pcblookup. It returns
// the best PCB (nil if none), the number of PCBs examined, and whether
// the match was exact; an exact match sits in slot len()-examined. An
// exact-keyed entry scores exactScore under Match when its key equals k
// and -1 otherwise, so only wildcard entries are scored.
//
//demux:hotpath
func (l *list) scan(k Key) (best *PCB, examined int, exact bool) {
	e := l.e
	bestScore := -1
	for i := len(e) - 1; i >= 0; i-- {
		if !e[i].wild {
			if e[i].key == k {
				return e[i].pcb, len(e) - i, true
			}
			continue
		}
		if score := Match(e[i].key, k); score > bestScore {
			bestScore = score
			best = e[i].pcb
		}
	}
	return best, len(e), false
}

// walk calls fn for every PCB from the front until fn returns false,
// reporting whether the walk ran to the end.
func (l *list) walk(fn func(*PCB) bool) bool {
	for i := len(l.e) - 1; i >= 0; i-- {
		if !fn(l.e[i].pcb) {
			return false
		}
	}
	return true
}
