package belief

import "repro/internal/speech"

// RewardKernel is Model.Reward behind a per-worker handle: it served the
// workers of the parallel sampler, which is gone. Nothing in the repository
// builds one; this file stays because benchmark/probes.go:233 times
// NewRewardKernel. ROADMAP item 1 removes it.
type RewardKernel struct {
	m *Model
}

// NewRewardKernel returns a kernel that scores through the model.
func (m *Model) NewRewardKernel() *RewardKernel { return &RewardKernel{m: m} }

// Reward is Model.Reward.
func (k *RewardKernel) Reward(s *speech.Speech, agg int, estimate float64) float64 {
	return k.m.Reward(s, agg, estimate)
}
