package doccheck

// symtab interns the DTD's names to dense ids for the streaming pass:
// element types under scope -1, and the attributes of element type t —
// numbered by their position in its declaration — under scope t. Lookups
// take the scanner's byte views directly and neither allocate nor convert.
// It is filled once when the Checker is built and read-only afterwards.
type symtab struct {
	slots []symSlot // open addressing, linear probing; id < 0 is empty
	mask  uint32
}

type symSlot struct {
	scope int32
	id    int32
	name  string
}

// newSymtab returns a table sized for n names at load factor ≤ 1/2.
func newSymtab(n int) symtab {
	size := 8
	for size < 2*n {
		size *= 2
	}
	slots := make([]symSlot, size)
	for i := range slots {
		slots[i].id = -1
	}
	return symtab{slots: slots, mask: uint32(size - 1)}
}

// add records name under scope with the given id.
func (t *symtab) add(scope int32, name string, id int32) {
	h := symHash(scope, []byte(name)) & t.mask
	for t.slots[h].id >= 0 {
		h = (h + 1) & t.mask
	}
	t.slots[h] = symSlot{scope: scope, id: id, name: name}
}

// lookup returns the id of name under scope, or -1.
//
//xic:hotpath
func (t *symtab) lookup(scope int32, name []byte) int32 {
	for h := symHash(scope, name) & t.mask; ; h = (h + 1) & t.mask {
		s := &t.slots[h]
		if s.id < 0 {
			return -1
		}
		if s.scope == scope && sameName(s.name, name) {
			return s.id
		}
	}
}

// symHash is FNV-1a over the name, seeded with the scope.
//
//xic:hotpath
func symHash(scope int32, name []byte) uint32 {
	h := uint32(2166136261) ^ uint32(scope)
	h *= 16777619
	for _, c := range name {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// sameName reports whether s and b hold the same bytes.
//
//xic:hotpath
func sameName(s string, b []byte) bool {
	if len(s) != len(b) {
		return false
	}
	for i := range b {
		if s[i] != b[i] {
			return false
		}
	}
	return true
}
