package apps

// KMeans is the parallel K-means clustering workload (Kanungo et al.) over
// geo-partitioned observations. Each iteration has two communication
// steps:
//
//  1. the centroid set is combined with a recursive-doubling allreduce
//     (at stage s, process i exchanges the centroid block with partner
//     i XOR 2^s), and
//  2. boundary observations migrate between skewed, hash-derived partner
//     pairs — geo-distributed data is unevenly sized, so reassigned points
//     move between irregular process pairs with irregular volumes.
//
// The XOR partners at all distances plus the skewed shuffle produce the
// dense, non-local pattern of the paper's Figure 3 that defeats
// locality-only mappers.
type KMeans struct {
	// Clusters and Dim size the centroid block exchanged per message:
	// Clusters × Dim × 8 bytes (float64 features) plus per-cluster counts.
	Clusters int
	Dim      int
	iters    int
}

// NewKMeans returns the workload with the evaluation defaults: 64 clusters
// over 128-dimensional points (≈64 KB centroid block per message).
func NewKMeans() App { return &KMeans{Clusters: 64, Dim: 128, iters: 20} }

// Name implements App.
func (k *KMeans) Name() string { return "K-means" }

// DefaultIters implements App.
func (k *KMeans) DefaultIters() int { return k.iters }

// ComputeTime implements App: assignment cost shrinks with the number of
// processes (fixed observation set split n ways).
func (k *KMeans) ComputeTime(n int) float64 {
	if n <= 0 {
		return 0
	}
	return 12.0 / float64(n)
}

// blockBytes is the size of one centroid-set message.
func (k *KMeans) blockBytes() int64 {
	return int64(k.Clusters) * (int64(k.Dim)*8 + 8)
}

// emit implements App.
func (k *KMeans) emit(out sink, n, iters int) {
	block := k.blockBytes()

	// Largest power of two ≤ n; ranks ≥ pow fold onto rank-pow partners
	// before the butterfly and receive the result afterwards (the standard
	// non-power-of-two recursive-doubling reduction).
	pow := 1
	for pow*2 <= n {
		pow *= 2
	}
	for it := 0; it < iters; it++ {
		for i := pow; i < n; i++ {
			out.MustSend(i, i-pow, block, TagReduce)
		}
		for s := 1; s < pow; s *= 2 {
			for i := 0; i < pow; i++ {
				partner := i ^ s
				if partner < pow {
					out.MustSend(i, partner, block, TagReduce)
				}
			}
		}
		for i := pow; i < n; i++ {
			out.MustSend(i-pow, i, block, TagBroadcast)
		}
		// Boundary-point migration: every process ships reassigned
		// observations to two hash-derived partners, with per-process
		// skewed volumes (geo-partitioned data is uneven).
		for i := 0; i < n; i++ {
			vol := int64(float64(block) * skew(i))
			for _, stride := range [2]int{17, 41} {
				partner := (i*stride + 3) % n
				if partner != i {
					out.MustSend(i, partner, vol, TagShuffle)
				}
			}
		}
	}
}

// skew maps a process rank to a deterministic volume factor in [0.5, 2.5),
// modeling uneven geo-partitioned data sizes.
func skew(i int) float64 {
	h := uint64(i+1) * 2654435761
	h ^= h >> 13
	return 0.5 + float64(h%1000)/500.0
}

// DNN is the deep-neural-network training workload: parallel stochastic
// gradient descent (Zinkevich et al.), where every worker trains an
// independent replica on its local shard and the replicas are averaged
// over a binomial tree at the end of every epoch. Communication is a
// single model reduction and broadcast per epoch, so the total message
// volume is small and the workload is computation-bound — the paper's
// Figure 3 observation, and the reason mapping gains are smallest for DNN
// (Figure 5).
type DNN struct {
	// ModelBytes is the size of the network parameters exchanged when
	// averaging replicas.
	ModelBytes int64
	iters      int
}

// NewDNN returns the workload with the evaluation defaults: a 100 KB
// averaged parameter delta per epoch (a ResNet-20-for-CIFAR-10-scale model
// exchanged in compressed form), keeping the total message volume small
// relative to the epoch's training time as Figure 3 observes.
func NewDNN() App { return &DNN{ModelBytes: 100 << 10, iters: 20} }

// Name implements App.
func (d *DNN) Name() string { return "DNN" }

// DefaultIters implements App.
func (d *DNN) DefaultIters() int { return d.iters }

// ComputeTime implements App: minibatch training time per epoch is
// independent of the worker count (each worker consumes its own shard).
func (d *DNN) ComputeTime(n int) float64 { return 2.5 }

// emit implements App.
func (d *DNN) emit(out sink, n, iters int) {
	for it := 0; it < iters; it++ {
		// Binomial-tree reduce of the model replicas to rank 0.
		for s := 1; s < n; s *= 2 {
			for i := 0; i < n; i++ {
				if i&s != 0 && i&(s-1) == 0 {
					dst := i &^ s
					if dst < n {
						out.MustSend(i, dst, d.ModelBytes, TagReduce)
					}
				}
			}
		}
		// Binomial-tree broadcast of the averaged model back out.
		for s := nextPow2(n) / 2; s >= 1; s /= 2 {
			for i := 0; i < n; i++ {
				if i&(2*s-1) == 0 && i+s < n {
					out.MustSend(i, i+s, d.ModelBytes, TagBroadcast)
				}
			}
		}
	}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}
