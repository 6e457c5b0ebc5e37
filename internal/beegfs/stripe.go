package beegfs

import "fmt"

// KiB, MiB and GiB are byte-size helpers used throughout the repo.
const (
	KiB int64 = 1024
	MiB int64 = 1024 * KiB
	GiB int64 = 1024 * MiB
)

// StripePattern describes how a file is striped: the number of storage
// targets used (the stripe count — the paper's central parameter) and the
// chunk size (PlaFRIM default: 512 KiB).
type StripePattern struct {
	Count     int
	ChunkSize int64
}

// Validate reports pattern errors.
func (p StripePattern) Validate() error {
	if p.Count <= 0 {
		return fmt.Errorf("beegfs: stripe count must be positive, got %d", p.Count)
	}
	if p.ChunkSize <= 0 {
		return fmt.Errorf("beegfs: chunk size must be positive, got %d", p.ChunkSize)
	}
	return nil
}

// TargetOfChunk returns the index (into the file's target list) storing the
// given chunk.
func (p StripePattern) TargetOfChunk(chunk int64) int {
	return int(chunk % int64(p.Count))
}

// ChunkOfOffset returns the chunk index containing the byte offset.
func (p StripePattern) ChunkOfOffset(off int64) int64 {
	return off / p.ChunkSize
}

// RegionDistribution returns, for a contiguous byte region [off, off+n) of
// a file striped with pattern p, the number of bytes that land on each of
// the p.Count targets (indexed by position in the file's target list).
//
// The computation is exact — it handles partial first and last chunks and
// regions shorter than one full stripe — because the allocation analysis
// (which server receives which fraction of the traffic) is the paper's key
// quantity.
func (p StripePattern) RegionDistribution(off, n int64) ([]int64, error) {
	dist := make([]int64, p.Count)
	if err := p.AddRegionDistribution(dist, off, n); err != nil {
		return nil, err
	}
	return dist, nil
}

// AddRegionDistribution accumulates the region's per-target byte counts
// into dist (len must be p.Count), sparing hot paths the per-region slice
// RegionDistribution allocates. Of a prefix [0, x) of the file, with
// x = q·width + r over the stripe width, target i holds
// q·ChunkSize + clamp(r − i·ChunkSize, 0, ChunkSize) bytes; the region's
// bytes are its end prefix's minus its start prefix's, so the cost is one
// pass over the targets whatever the region's length.
func (p StripePattern) AddRegionDistribution(dist []int64, off, n int64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if off < 0 || n < 0 {
		return fmt.Errorf("beegfs: negative region off=%d n=%d", off, n)
	}
	if n == 0 {
		return nil
	}
	width := p.ChunkSize * int64(p.Count)
	qLo, rLo := off/width, off%width
	qHi, rHi := (off+n)/width, (off+n)%width
	whole := (qHi - qLo) * p.ChunkSize
	dist = dist[:p.Count]
	for i := range dist {
		start := int64(i) * p.ChunkSize
		dist[i] += whole + p.stripeTail(rHi-start) - p.stripeTail(rLo-start)
	}
	return nil
}

// stripeTail returns clamp(v, 0, ChunkSize): the bytes a target holds of
// a prefix's last, partial stripe when the prefix ends v bytes past the
// start of the target's chunk in that stripe.
func (p StripePattern) stripeTail(v int64) int64 {
	return min(max(v, 0), p.ChunkSize)
}
