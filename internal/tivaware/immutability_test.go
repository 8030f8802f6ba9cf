package tivaware

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tivaware/internal/delayspace"
	"tivaware/internal/tiv"
)

// sightings hashes every epoch a Service publishes at first sighting;
// verify re-hashes them all. Lock-free readers hold a
// published snapshot for as long as they like, so one that changed in
// between was written after it was stored.
type sightings struct {
	mu     sync.Mutex
	epochs map[*epoch]uint64
}

func newSightings() *sightings {
	return &sightings{epochs: map[*epoch]uint64{}}
}

// sight hashes whatever s currently publishes, if it is new.
func (w *sightings) sight(s *Service) {
	e := s.cur.Load()
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, seen := w.epochs[e]; e != nil && !seen {
		w.epochs[e] = hashEpoch(e)
	}
}

func (w *sightings) verify(t *testing.T) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	for e, h := range w.epochs {
		if hashEpoch(e) != h {
			t.Errorf("epoch seq %d (version %d) was written after it was published", e.seq, e.m.Version())
		}
	}
}

// hashWords hashes the words f writes.
func hashWords(f func(word func(uint64))) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	f(func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	})
	return h.Sum64()
}

// hashEpoch covers everything a query reads off an epoch: the delay
// rows, severities, counts, triangle totals, sequence and version.
func hashEpoch(e *epoch) uint64 {
	return hashWords(func(word func(uint64)) {
		for _, x := range []uint64{e.seq, e.m.Version(), uint64(e.ViolatingTriangles), uint64(e.Triangles)} {
			word(x)
		}
		for i := 0; i < e.m.N(); i++ {
			for _, d := range e.m.Row(i) {
				word(math.Float64bits(d))
			}
			for _, v := range e.Severities.Row(i) {
				word(math.Float64bits(v))
			}
			for _, c := range e.Counts.Row(i) {
				word(uint64(uint32(c)))
			}
		}
	})
}

// queryAll runs every read the service offers once, sighting what it
// publishes after each.
func queryAll(t *testing.T, s *Service, w *sightings, rng *rand.Rand) {
	ctx := context.Background()
	n := s.N()
	i, j := rng.Intn(n), rng.Intn(n-1)
	if j >= i {
		j++
	}
	opts := QueryOptions{SeverityPenalty: 2}
	check := func(err error) {
		if err != nil {
			t.Error(err)
		}
		w.sight(s)
	}
	_, err := s.Rank(ctx, i, nil, opts)
	check(err)
	_, err = s.KClosest(ctx, i, 4, QueryOptions{ExcludeViolated: true})
	check(err)
	_, err = s.ClosestNode(ctx, i, opts)
	check(err)
	_, err = s.DetourPath(ctx, i, j)
	check(err)
	_, err = s.QueryBatch(ctx, []Query{
		{Kind: KindRank, Target: i, K: 5},
		{Kind: KindClosest, Target: j},
		{Kind: KindDetour, I: i, J: j},
		{Kind: KindTop, K: 4},
		{Kind: KindDelay, I: i, J: j},
		{Kind: KindAnalysis},
	})
	check(err)
	s.Severities()
	s.TopEdges(3)
	s.Delay(i, j)
	_, err = s.Analysis()
	check(err)
	v, err := s.View(ctx)
	check(err)
	if err != nil {
		return
	}
	_, err = v.QueryBatch(ctx, []Query{
		SelectionQuery(KindRank, j, 0, nil, opts),
		{Kind: KindDetour, I: j, J: i},
		{Kind: KindClosest, Target: i},
		{Kind: KindTop, K: 2},
	})
	check(err)
	v.TopEdges(2)
	v.ViolatingTriangleFraction()
}

// TestPublishedEpochsNeverWritten pins the copy-on-write contract the
// lock-free read path rests on: nothing writes an epoch reached through
// s.cur.Load() once it is published. Every goroutine of a mixed burst sights what the service
// publishes after each call; at the end every sighted snapshot must
// hash as it did then. Under -race a writer also shows up as a race
// with the hashing.
//
// The live burst runs writers (single updates, batches and removals),
// subscribers that query from their callbacks, and readers of every
// query kind, Views included. The batch burst mutates its matrix out
// of band — two Matrix.Set calls per round, each followed by a
// ViolatingTriangleFraction that builds the next epoch — between rounds
// of concurrent readers, as the Service's concurrency contract
// requires.
func TestPublishedEpochsNeverWritten(t *testing.T) {
	defer hangWatchdog(t, 20*time.Second)()
	const n = 40

	t.Run("live", func(t *testing.T) {
		svc, err := NewFromMatrix(holeyMatrix(n, 3, 0.1), Options{Live: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		w := newSightings()
		for k := 0; k < 2; k++ {
			// Callbacks run on the writers' goroutines: one rng per call.
			if _, err := svc.Subscribe(func(cs tiv.ChangeSet) {
				queryAll(t, svc, w, rand.New(rand.NewSource(int64(cs.Version))))
			}); err != nil {
				t.Fatal(err)
			}
		}
		var writers, readers sync.WaitGroup
		done := make(chan struct{})
		for r := 0; r < 3; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				rng := rand.New(rand.NewSource(int64(r)))
				for {
					select {
					case <-done:
						return
					default:
					}
					queryAll(t, svc, w, rng)
				}
			}(r)
		}
		for k := 0; k < 2; k++ {
			writers.Add(1)
			go func(k int) {
				defer writers.Done()
				rng := rand.New(rand.NewSource(int64(10 + k)))
				update := func() tiv.Update {
					i, j := rng.Intn(n), rng.Intn(n-1)
					if j >= i {
						j++
					}
					rtt := 1 + rng.Float64()*200
					if rng.Intn(10) == 0 {
						rtt = delayspace.Missing
					}
					return tiv.Update{I: i, J: j, RTT: rtt}
				}
				for x := 0; x < 60; x++ {
					var err error
					if x%5 == 4 {
						_, err = svc.ApplyBatch([]tiv.Update{update(), update(), update()})
					} else {
						u := update()
						_, err = svc.ApplyUpdate(u.I, u.J, u.RTT)
					}
					if err != nil {
						t.Error(err)
						return
					}
					w.sight(svc)
				}
			}(k)
		}
		writers.Wait()
		close(done)
		readers.Wait()
		w.verify(t)
		if len(w.epochs) < 10 {
			t.Fatalf("the burst published only %d epochs", len(w.epochs))
		}
		t.Logf("%d epochs hashed", len(w.epochs))
	})

	t.Run("batch", func(t *testing.T) {
		m := holeyMatrix(n, 4, 0.1)
		svc, err := NewFromMatrix(m, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		w := newSightings()
		// Out-of-band mutations and readers take turns: the matrix may
		// not change under a running call.
		rng := rand.New(rand.NewSource(6))
		for round := 0; round < 40; round++ {
			for set := 0; set < 2; set++ {
				i, j := rng.Intn(n), rng.Intn(n-1)
				if j >= i {
					j++
				}
				m.Set(i, j, 1+rng.Float64()*200)
				svc.ViolatingTriangleFraction()
				w.sight(svc)
			}

			var readers sync.WaitGroup
			for r := 0; r < 3; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					rng := rand.New(rand.NewSource(int64(round*3 + r)))
					for k := 0; k < 3; k++ {
						queryAll(t, svc, w, rng)
						svc.ViolatingTriangleFraction()
						w.sight(svc)
					}
				}(r)
			}
			readers.Wait()
		}
		w.verify(t)
		if len(w.epochs) < 80 {
			t.Fatalf("the burst published only %d epochs", len(w.epochs))
		}
		t.Logf("%d epochs hashed", len(w.epochs))
	})
}
