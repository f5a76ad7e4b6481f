package coherence

// Differential test of the paged directory against a map model: random
// get/getOrInsert calls and entry mutations must leave both agreeing on
// every unit, and every entry pointer handed out must keep aliasing its
// unit through later page allocations and index growth.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// dirUnits counts the units present in t: those with a sharer bit set.
func dirUnits(t *dirTable) int {
	n := 0
	for _, s := range t.slots {
		if s.key == 0 {
			continue
		}
		for i := range s.page {
			if s.page[i].sharers != 0 {
				n++
			}
		}
	}
	return n
}

// dirChecker drives a dirTable and a map model with the same operations.
type dirChecker struct {
	tb    dirTable
	model map[uint64]dirEntry
	held  map[uint64]*dirEntry // the pointer each unit's insert returned
}

func newDirChecker() *dirChecker {
	return &dirChecker{tb: newDirTable(), model: map[uint64]dirEntry{}, held: map[uint64]*dirEntry{}}
}

// step applies one operation to unit bn. v picks a CPU (its low six
// bits) and a sub-unit (the next seven). Mutations follow the System's
// rules: an insert sets a sharer bit, and a write keeps the writer's.
func (c *dirChecker) step(op byte, bn, v uint64) error {
	cpu := int(v & 63)
	sub := uint(v>>6) & (maxSubUnits - 1)
	want, present := c.model[bn]
	switch op % 4 {
	case 0:
		e := c.tb.get(bn)
		if (e != nil) != present {
			return fmt.Errorf("get(%#x) present=%v, model %v", bn, e != nil, present)
		}
		if present && *e != want {
			return fmt.Errorf("get(%#x) = %+v, model %+v", bn, *e, want)
		}
		return nil
	case 1:
		e := c.tb.getOrInsert(bn)
		if *e != want {
			return fmt.Errorf("getOrInsert(%#x) = %+v, model %+v", bn, *e, want)
		}
		if h := c.held[bn]; h != nil && h != e {
			return fmt.Errorf("getOrInsert(%#x) moved the entry", bn)
		}
		c.held[bn] = e
		e.sharers |= 1 << uint(cpu)
		want.sharers |= 1 << uint(cpu)
	case 2:
		// A write by cpu: invalidate every other sharer.
		if !present {
			return nil
		}
		e := c.held[bn]
		for _, x := range []*dirEntry{e, &want} {
			x.sharers |= 1 << uint(cpu)
			x.invalidated |= x.sharers &^ (1 << uint(cpu))
			x.sharers = 1 << uint(cpu)
			x.write(sub)
		}
	case 3:
		// cpu re-acquires the unit.
		if !present {
			return nil
		}
		e := c.held[bn]
		if *e != want {
			return fmt.Errorf("held entry %#x = %+v, model %+v", bn, *e, want)
		}
		e.sharers |= 1 << uint(cpu)
		e.reacquire(cpu)
		want.sharers |= 1 << uint(cpu)
		want.reacquire(cpu)
	}
	c.model[bn] = want
	return nil
}

// check compares the whole table with the model.
func (c *dirChecker) check() error {
	if got, want := dirUnits(&c.tb), len(c.model); got != want {
		return fmt.Errorf("table holds %d units, model %d", got, want)
	}
	for bn, want := range c.model {
		e := c.tb.get(bn)
		if e == nil || *e != want {
			return fmt.Errorf("unit %#x: table %+v, model %+v", bn, e, want)
		}
		if e != c.held[bn] {
			return fmt.Errorf("unit %#x: entry moved since its insert", bn)
		}
	}
	return nil
}

// Page numbers the generators draw from: the bottom of the range, the
// top of the 64 B block-number range, and the top of the key range.
var dirTestBases = [...]uint64{0, (math.MaxUint64 >> 6 >> dirPageBits) - 63, (math.MaxUint64 >> dirPageBits) - 63}

func TestDirTableMatchesMapModel(t *testing.T) {
	c := newDirChecker()
	rng := rand.New(rand.NewSource(7))
	// 4000 scattered pages force five index growths and sixty slab
	// refills; the boundary pools keep revisiting a few pages.
	scattered := make([]uint64, 4000)
	for i := range scattered {
		scattered[i] = rng.Uint64() >> (dirPageBits + 6)
	}
	for op := 0; op < 300_000; op++ {
		var bn uint64
		switch rng.Intn(3) {
		case 0: // the edges of a page near a range boundary
			pn := dirTestBases[rng.Intn(len(dirTestBases))] + uint64(rng.Intn(64))
			bn = pn<<dirPageBits | [...]uint64{0, 1, dirPageUnits - 2, dirPageUnits - 1}[rng.Intn(4)]
		case 1: // anywhere in a page near a range boundary
			pn := dirTestBases[rng.Intn(len(dirTestBases))] + uint64(rng.Intn(64))
			bn = pn<<dirPageBits | uint64(rng.Intn(dirPageUnits))
		default:
			bn = scattered[rng.Intn(len(scattered))]<<dirPageBits | uint64(rng.Intn(dirPageUnits))
		}
		if err := c.step(byte(rng.Intn(4)), bn, rng.Uint64()); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if op%50_000 == 0 {
			if err := c.check(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := c.check(); err != nil {
		t.Fatal(err)
	}
	if len(c.tb.slots) < dirInitialSlots<<4 {
		t.Fatalf("index has %d slots; the test must force several growths", len(c.tb.slots))
	}
}

// FuzzDirTable decodes the input as 5-byte operations: an op code, a
// page selector (base in the top two bits, page offset in the rest), a
// unit within the page, and two bytes for the CPU and sub-unit.
func FuzzDirTable(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0x40, 31, 1, 2, 2, 0x40, 31, 3, 4, 3, 0x40, 31, 1, 0, 0, 0x40, 31, 0, 0})
	f.Add([]byte{1, 0xbf, 0, 0xff, 0xff, 1, 0xff, 31, 0xc0, 0x11, 2, 0xff, 31, 0x85, 0x11, 0, 0xff, 31, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newDirChecker()
		for ; len(data) >= 5; data = data[5:] {
			pn := dirTestBases[int(data[1]>>6)%len(dirTestBases)] + uint64(data[1]&63)
			bn := pn<<dirPageBits | uint64(data[2]&(dirPageUnits-1))
			if err := c.step(data[0], bn, uint64(binary.LittleEndian.Uint16(data[3:5]))); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.check(); err != nil {
			t.Fatal(err)
		}
	})
}
