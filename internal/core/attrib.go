package core

// AttribState is the per-prediction attribution detail a predictor records
// in each Update while attribution recording is enabled: the raw material of the event-tracing layer (internal/ptrace) and
// its miss classifier (internal/analysis). Recording is off by default — it
// costs a handful of stores per branch — and is switched on by sim.Kernel
// when an event recorder or a miss observer is attached.
type AttribState struct {
	// Pattern is the key the branch probed the target table with (the
	// folded history pattern + branch address; a hash of the exact key in
	// full-precision mode; the word-aligned address for a BTB).
	Pattern uint64
	// Component is the hybrid component index whose prediction won the
	// confidence vote, -1 for non-hybrid predictors or when no component
	// predicted.
	Component int16
	// Conf is the predicting entry's confidence counter before training.
	Conf uint8
	// TableHit reports whether the probe found a live entry (for hybrids:
	// in the winning component's table).
	TableHit bool
	// NewEntry reports that the update allocated a fresh entry for Pattern.
	NewEntry bool
	// Evicted reports that the allocation displaced a live entry.
	Evicted bool
	// AltCorrect reports that a hybrid component other than the chosen one
	// predicted the resolved target correctly.
	AltCorrect bool
}

// Attributor is implemented by predictors that can report per-prediction
// attribution detail. SetAttribution(true) turns recording on; Attribution
// returns the state the most recent Update recorded and is only meaningful
// while recording is enabled. Predict records nothing.
type Attributor interface {
	SetAttribution(on bool)
	Attribution() AttribState
}

// fnv64 hashes an exact (byte-string) table key into the 64-bit Pattern
// space (FNV-1a), so full-precision predictors report comparable patterns.
func fnv64(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
