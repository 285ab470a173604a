package history

// KeyBits returns the number of significant bits in keys produced by Key.
func (s Spec) KeyBits() int {
	if s.Op == OpConcat {
		return 30 + s.PatternBits()
	}
	if pb := s.PatternBits(); pb > 30 {
		return pb
	}
	return 30
}

// Registers returns the number of distinct registers materialized so far.
func (f *File) Registers() int {
	if f.global != nil {
		return 1
	}
	return len(f.regs)
}
