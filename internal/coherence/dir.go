package coherence

import "repro/internal/mem"

// dirTable is the coherence directory, paged by spatial region. A page
// holds the entries of dirPageUnits consecutive coherence units (one
// 2 kB region at 64 B units), so the units a region's generation,
// stream fill or scan touches share one page, and the table hashes page
// numbers rather than unit numbers.
//
// Pages are carved from fixed-size slabs that are never moved or freed:
// only the small page-number index (an open-addressed, linear-probing
// table of page pointers) ever rehashes, and an entry pointer returned
// by get or getOrInsert stays valid for the table's lifetime. getOrInsert,
// the only lookup on the simulation path, memoizes the last page it
// found and skips even the index while consecutive lookups stay within
// one region, as stream fills and scans do.
//
// Entries are never retired (a unit's sharer history stays relevant for
// false-sharing classification), so the table only grows; steady state
// performs zero allocations. A unit is present exactly when its entry
// has a sharer bit set: every insert is followed by setting the
// requester's bit, and only remote bits are ever cleared.
type dirTable struct {
	slots []dirSlot
	mask  uint64
	n     int // pages in the index
	grow  int // insert threshold (load factor 0.7)

	slab []dirPage // unused tail of the current slab

	lastPN   uint64 // page number of lastPage; all ones before the first lookup
	lastPage *dirPage
}

// dirPageBits sets the page size: 32 units per page. At 200k records a
// 2 kB page holds 22–32 touched units for the OLTP, DSS and scientific
// traces and about 8 for web.
const (
	dirPageBits  = 5
	dirPageUnits = 1 << dirPageBits
)

// dirPage holds the entries of one region's coherence units.
type dirPage [dirPageUnits]dirEntry

// dirSlot is one index slot. Keys are stored as page number + 1 with 0
// meaning empty; page numbers are block numbers shifted right by
// dirPageBits, so the key cannot wrap.
type dirSlot struct {
	key  uint64
	page *dirPage
}

// dirSlabPages is the number of pages allocated at once (64 kB at 32 B
// entries). dirInitialSlots sizes the empty index (a power of two); 256
// slots hold 179 pages before the first growth.
const (
	dirSlabPages    = 64
	dirInitialSlots = 256
)

func newDirTable() dirTable {
	return dirTable{
		slots: make([]dirSlot, dirInitialSlots),
		mask:  dirInitialSlots - 1,
		grow:  dirInitialSlots * 7 / 10,
		// Page numbers are block numbers shifted right by dirPageBits, so
		// none reaches the all-ones value.
		lastPN: ^uint64(0),
	}
}

// slot returns the index slot holding key, or the empty slot where it
// would be inserted.
func (t *dirTable) slot(key uint64) *dirSlot {
	i := mem.HashKey(key) & t.mask
	for {
		s := &t.slots[i]
		if s.key == key || s.key == 0 {
			return s
		}
		i = (i + 1) & t.mask
	}
}

// get returns the entry for block number bn, or nil if absent.
func (t *dirTable) get(bn uint64) *dirEntry {
	s := t.slot(bn>>dirPageBits + 1)
	if s.key == 0 {
		return nil
	}
	e := &s.page[bn&(dirPageUnits-1)]
	if e.sharers == 0 {
		return nil
	}
	return e
}

// getOrInsert returns the entry for block number bn; an absent unit's
// entry is zero, and the caller inserts it by setting a sharer bit. The
// memo hit is kept small enough to inline into the callers.
func (t *dirTable) getOrInsert(bn uint64) *dirEntry {
	if bn>>dirPageBits == t.lastPN {
		return &t.lastPage[bn&(dirPageUnits-1)]
	}
	return t.getOrInsertPage(bn)
}

// getOrInsertPage is getOrInsert past a memo miss: it finds bn's page,
// inserting it if absent, and memoizes it.
func (t *dirTable) getOrInsertPage(bn uint64) *dirEntry {
	pn := bn >> dirPageBits
	s := t.slot(pn + 1)
	if s.key == 0 {
		s.key, s.page = pn+1, t.newPage()
		t.n++
	}
	t.lastPN, t.lastPage = pn, s.page
	if t.n >= t.grow {
		t.rehash()
	}
	return &t.lastPage[bn&(dirPageUnits-1)]
}

func (t *dirTable) newPage() *dirPage {
	if len(t.slab) == 0 {
		t.slab = make([]dirPage, dirSlabPages)
	}
	p := &t.slab[0]
	t.slab = t.slab[1:]
	return p
}

// rehash doubles the index. Pages stay where they are.
func (t *dirTable) rehash() {
	old := t.slots
	t.slots = make([]dirSlot, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	t.grow = len(t.slots) * 7 / 10
	for _, s := range old {
		if s.key != 0 {
			*t.slot(s.key) = s
		}
	}
}
