package infer

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"kertbn/internal/bn"
	"kertbn/internal/obs"
	"kertbn/internal/stats"
)

// ErrZeroEvidence is wrapped by the likelihood-weighting samplers when
// every sample gives the evidence zero likelihood: the observation is
// impossible under the model (for example a D value beyond the leak range of
// a continuous model), so no posterior exists. It is a fact about the
// query, not a failure of the sampler.
var ErrZeroEvidence = errors.New("infer: zero evidence likelihood")

var (
	lwQueries = obs.C("infer.lw.queries")
	lwSeconds = obs.H("infer.lw.seconds")
	lwSamples = obs.HCount("infer.lw.samples")
)

// ContinuousEvidence maps node id → observed real value (integer-valued for
// discrete nodes).
type ContinuousEvidence map[int]float64

// WeightedSamples is the output of likelihood weighting for one query node.
type WeightedSamples struct {
	Values  []float64
	Weights []float64
}

// LikelihoodWeighting estimates the posterior of `query` given evidence by
// drawing nSamples ancestral samples in which evidence nodes are clamped and
// each sample is weighted by the likelihood of the clamped values. It works
// for any CPD mix, including the nonlinear deterministic-with-leak D node of
// a continuous KERT-BN.
func LikelihoodWeighting(n *bn.Network, query int, ev ContinuousEvidence, nSamples int, rng *stats.RNG) (*WeightedSamples, error) {
	start := time.Now()
	defer func() { lwSeconds.Observe(time.Since(start).Seconds()) }()
	lwQueries.Inc()
	lwSamples.Observe(float64(nSamples))
	if query < 0 || query >= n.N() {
		return nil, fmt.Errorf("infer: query node %d out of range", query)
	}
	if _, isEv := ev[query]; isEv {
		return nil, fmt.Errorf("infer: query node %d is also evidence", query)
	}
	if nSamples <= 0 {
		return nil, fmt.Errorf("infer: nSamples must be positive, got %d", nSamples)
	}
	order := n.TopoOrder()
	out := &WeightedSamples{
		Values:  make([]float64, 0, nSamples),
		Weights: make([]float64, 0, nSamples),
	}
	row := make([]float64, n.N())
	for s := 0; s < nSamples; s++ {
		logW := 0.0
		for _, id := range order {
			node := n.Node(id)
			pv := n.ParentValues(id, row)
			if val, isEv := ev[id]; isEv {
				row[id] = val
				logW += node.CPD.LogProb(val, pv)
			} else {
				row[id] = node.CPD.Sample(rng, pv)
			}
		}
		if math.IsInf(logW, -1) {
			continue // impossible sample under evidence
		}
		out.Values = append(out.Values, row[query])
		out.Weights = append(out.Weights, logW)
	}
	if len(out.Values) == 0 {
		return nil, fmt.Errorf("%w: all %d samples had zero weight", ErrZeroEvidence, nSamples)
	}
	normalizeLogWeights(out.Weights)
	return out, nil
}

// normalizeLogWeights converts accumulated log weights in place to
// normalized linear weights (log-sum-exp).
func normalizeLogWeights(weights []float64) {
	maxLW := math.Inf(-1)
	for _, lw := range weights {
		if lw > maxLW {
			maxLW = lw
		}
	}
	total := 0.0
	for i, lw := range weights {
		w := math.Exp(lw - maxLW)
		weights[i] = w
		total += w
	}
	for i := range weights {
		weights[i] /= total
	}
}

// Mean returns the weighted posterior mean.
func (w *WeightedSamples) Mean() float64 {
	s := 0.0
	for i, v := range w.Values {
		s += w.Weights[i] * v
	}
	return s
}

// Variance returns the weighted posterior variance.
func (w *WeightedSamples) Variance() float64 {
	mu := w.Mean()
	s := 0.0
	for i, v := range w.Values {
		d := v - mu
		s += w.Weights[i] * d * d
	}
	return s
}

// Std returns the weighted posterior standard deviation.
func (w *WeightedSamples) Std() float64 { return math.Sqrt(w.Variance()) }

// Exceedance returns the weighted posterior probability P(X > h).
func (w *WeightedSamples) Exceedance(h float64) float64 {
	s := 0.0
	for i, v := range w.Values {
		if v > h {
			s += w.Weights[i]
		}
	}
	return s
}

// Quantile returns the weighted q-quantile (0<=q<=1).
func (w *WeightedSamples) Quantile(q float64) float64 {
	if len(w.Values) == 0 {
		panic("infer: Quantile of empty sample set")
	}
	type pair struct{ v, w float64 }
	ps := make([]pair, len(w.Values))
	for i := range w.Values {
		ps[i] = pair{w.Values[i], w.Weights[i]}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].v < ps[b].v })
	acc := 0.0
	for _, p := range ps {
		acc += p.w
		if acc >= q {
			return p.v
		}
	}
	return ps[len(ps)-1].v
}

// EffectiveSampleSize returns 1/Σw² — a diagnostic for weight degeneracy.
func (w *WeightedSamples) EffectiveSampleSize() float64 {
	s := 0.0
	for _, wi := range w.Weights {
		s += wi * wi
	}
	if s == 0 {
		return 0
	}
	return 1 / s
}

// Mixture summarizes the weighted samples as a kernel-density Gaussian
// mixture with bandwidth chosen by Silverman's rule, for plotting posterior
// curves the way the paper's Figures 6 and 7 do.
func (w *WeightedSamples) Mixture() *bn.GaussianMixture1D {
	n := len(w.Values)
	sd := w.Std()
	if sd == 0 {
		sd = 1e-3
	}
	bw := 1.06 * sd * math.Pow(float64(n), -0.2)
	m := &bn.GaussianMixture1D{
		Weights: append([]float64(nil), w.Weights...),
		Means:   append([]float64(nil), w.Values...),
		Sigmas:  make([]float64, n),
	}
	for i := range m.Sigmas {
		m.Sigmas[i] = bw
	}
	return m
}
