package tivd

// The daemon's limits, for the black-box tests that probe them.
const (
	RankCap  = rankCap
	BatchCap = batchCap
)

// SetRankCap lowers s's cap on k, which no deployment can; call it
// before s serves.
func (s *Server) SetRankCap(k int) { s.maxK = k }
