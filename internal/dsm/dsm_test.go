package dsm

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"genomedsm/internal/cluster"
)

func newTestSystem(t *testing.T, nprocs int, opts Options) *System {
	t.Helper()
	sys, err := NewSystem(nprocs, cluster.Zero(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(0, cluster.Zero(), Options{}); err == nil {
		t.Error("zero nodes accepted")
	}
	bad := cluster.Zero()
	bad.PageSize = 0
	if _, err := NewSystem(2, bad, Options{}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewSystem(2, cluster.Zero(), Options{CacheSlots: -1}); err == nil {
		t.Error("negative cache accepted")
	}
}

func TestAllocValidation(t *testing.T) {
	sys := newTestSystem(t, 2, Options{})
	if _, err := sys.Alloc(0, 0); err == nil {
		t.Error("zero-size alloc accepted")
	}
	if _, err := sys.Alloc(10, 5); err == nil {
		t.Error("out-of-range home accepted")
	}
	if _, err := sys.AllocBlocked(-1); err == nil {
		t.Error("negative blocked alloc accepted")
	}
}

func TestAllocHomes(t *testing.T) {
	sys := newTestSystem(t, 4, Options{})
	ps := sys.Config().PageSize
	// Rotating allocation starting at node 2: pages homed 2,3,0,1…
	if _, err := sys.Alloc(4*ps, 2); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if got := sys.page(k).home; got != (2+k)%4 {
			t.Errorf("page %d home %d, want %d", k, got, (2+k)%4)
		}
	}
	// Blocked allocation: 8 pages over 4 nodes = 2 pages per node.
	if _, err := sys.AllocBlocked(8 * ps); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		if got := sys.page(4 + k).home; got != k/2 {
			t.Errorf("blocked page %d home %d, want %d", k, got, k/2)
		}
	}
}

func TestRegionSlice(t *testing.T) {
	sys := newTestSystem(t, 1, Options{})
	r, err := sys.Alloc(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := r.Slice(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Size() != 20 {
		t.Errorf("slice size %d", sub.Size())
	}
	if _, err := r.Slice(90, 20); err == nil {
		t.Error("overlong slice accepted")
	}
	if _, err := r.Slice(-1, 5); err == nil {
		t.Error("negative slice accepted")
	}
}

func TestReadWriteWithinNode(t *testing.T) {
	sys := newTestSystem(t, 1, Options{})
	r, _ := sys.Alloc(10000, 0)
	err := sys.Run(func(n *Node) error {
		data := []byte("hello, dsm world")
		if err := n.WriteAt(r, 4090, data); err != nil { // crosses a page boundary
			return err
		}
		buf := make([]byte, len(data))
		if err := n.ReadAt(r, 4090, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, data) {
			return fmt.Errorf("read %q, want %q", buf, data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccessBoundsChecked(t *testing.T) {
	sys := newTestSystem(t, 1, Options{})
	r, _ := sys.Alloc(100, 0)
	err := sys.Run(func(n *Node) error {
		if err := n.ReadAt(r, 95, make([]byte, 10)); err == nil {
			return fmt.Errorf("out-of-region read accepted")
		}
		if err := n.WriteAt(r, -1, []byte{1}); err == nil {
			return fmt.Errorf("negative-offset write accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReleaseConsistencyFlow exercises the §3.1 protocol end to end:
// node 0 writes under a lock; node 1 sees the value after acquiring the
// same lock (write notice → invalidation → fetch), and protocol counters
// reflect exactly that flow.
func TestReleaseConsistencyFlow(t *testing.T) {
	sys := newTestSystem(t, 2, Options{})
	r, _ := sys.Alloc(4096, 0) // homed at node 0; node 1 is remote
	err := sys.Run(func(n *Node) error {
		if n.ID() == 0 {
			if err := n.Acquire(0); err != nil {
				return err
			}
			if err := n.WriteAt(r, 100, []byte{42}); err != nil {
				return err
			}
			if err := n.Release(0); err != nil {
				return err
			}
			if err := n.Setcv(0); err != nil {
				return err
			}
		} else {
			// Pre-warm a stale copy before node 0 writes is racy; instead
			// wait for the signal, then acquire: the grant's write notice
			// must invalidate nothing (no copy) and the read must fetch
			// the fresh value.
			if err := n.Waitcv(0); err != nil {
				return err
			}
			if err := n.Acquire(0); err != nil {
				return err
			}
			var buf [1]byte
			if err := n.ReadAt(r, 100, buf[:]); err != nil {
				return err
			}
			if buf[0] != 42 {
				return fmt.Errorf("node 1 read %d, want 42", buf[0])
			}
			return n.Release(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.TotalStats()
	if st.PageFetches != 1 {
		t.Errorf("page fetches %d, want 1", st.PageFetches)
	}
	if st.LockAcquires != 2 || st.LockReleases != 2 {
		t.Errorf("lock counts %d/%d", st.LockAcquires, st.LockReleases)
	}
}

// TestWriteNoticeInvalidation checks the scope-consistency core: a cached
// copy goes stale only when a write notice with a newer version arrives
// via a lock the reader acquires.
func TestWriteNoticeInvalidation(t *testing.T) {
	sys := newTestSystem(t, 2, Options{})
	r, _ := sys.Alloc(4096, 0)
	// Native Go channels order the phases *without* any DSM
	// synchronization, so we can observe the stale copy that scope
	// consistency legally serves between sync operations.
	firstReadDone := make(chan struct{})
	updateDone := make(chan struct{})
	err := sys.Run(func(n *Node) error {
		var buf [1]byte
		switch n.ID() {
		case 0:
			if err := n.WithLock(0, func() error { return n.WriteAt(r, 0, []byte{1}) }); err != nil {
				return err
			}
			if err := n.Setcv(0); err != nil {
				return err
			}
			<-firstReadDone
			if err := n.WithLock(0, func() error { return n.WriteAt(r, 0, []byte{2}) }); err != nil {
				return err
			}
			close(updateDone)
		case 1:
			if err := n.Waitcv(0); err != nil {
				return err
			}
			if err := n.Acquire(0); err != nil {
				return err
			}
			if err := n.ReadAt(r, 0, buf[:]); err != nil {
				return err
			}
			if buf[0] != 1 {
				return fmt.Errorf("first read %d, want 1", buf[0])
			}
			if err := n.Release(0); err != nil {
				return err
			}
			close(firstReadDone)
			<-updateDone
			// Without acquiring the lock, the stale cached copy is legally
			// served (scope consistency permits it).
			if err := n.ReadAt(r, 0, buf[:]); err != nil {
				return err
			}
			if buf[0] != 1 {
				return fmt.Errorf("unsynchronized read %d, scope consistency should serve the cached 1", buf[0])
			}
			// After acquire, the write notice invalidates and the read
			// refetches.
			if err := n.Acquire(0); err != nil {
				return err
			}
			if err := n.ReadAt(r, 0, buf[:]); err != nil {
				return err
			}
			if buf[0] != 2 {
				return fmt.Errorf("synchronized read %d, want 2", buf[0])
			}
			return n.Release(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.TotalStats()
	if st.Invalidations != 1 {
		t.Errorf("invalidations %d, want exactly 1", st.Invalidations)
	}
	if st.PageFetches != 2 {
		t.Errorf("page fetches %d, want 2 (initial + after invalidation)", st.PageFetches)
	}
}

// TestMultipleWriterMerge has every node write a disjoint slice of the
// same page under different locks, then checks at the barrier that the
// home merged all diffs — the MRMW protocol in action.
func TestMultipleWriterMerge(t *testing.T) {
	const nprocs = 4
	sys := newTestSystem(t, nprocs, Options{})
	r, _ := sys.Alloc(4096, 0)
	err := sys.Run(func(n *Node) error {
		part := make([]byte, 1024)
		for i := range part {
			part[i] = byte(n.ID() + 1)
		}
		if err := n.WriteAt(r, n.ID()*1024, part); err != nil {
			return err
		}
		if err := n.Barrier(); err != nil {
			return err
		}
		// After the barrier every node must see all four quadrants.
		buf := make([]byte, 4096)
		if err := n.ReadAt(r, 0, buf); err != nil {
			return err
		}
		for q := 0; q < nprocs; q++ {
			for i := 0; i < 1024; i++ {
				if buf[q*1024+i] != byte(q+1) {
					return fmt.Errorf("node %d sees %d at quadrant %d offset %d", n.ID(), buf[q*1024+i], q, i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.TotalStats()
	// Nodes 1..3 are remote writers: one twin and one diff each.
	if st.Twins != nprocs-1 || st.DiffsSent != nprocs-1 {
		t.Errorf("twins %d diffs %d, want %d each", st.Twins, st.DiffsSent, nprocs-1)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	cfg := cluster.Zero()
	cfg.CellTime = 1e-6
	sys, err := NewSystem(3, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Run(func(n *Node) error {
		n.Compute(int64(1000 * (n.ID() + 1))) // 1ms, 2ms, 3ms
		return n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	// All clocks must have advanced to at least the slowest node's time.
	for i := 0; i < 3; i++ {
		if now := sys.Node(i).Clock().Now(); now < 3e-3 {
			t.Errorf("node %d at %g after barrier, want >= 3ms", i, now)
		}
	}
	b := sys.Breakdowns()
	if b[0].Cat[cluster.Barrier] < 1.9e-3 {
		t.Errorf("fastest node barrier wait %g, want ~2ms", b[0].Cat[cluster.Barrier])
	}
	if b[2].Cat[cluster.Barrier] > 1e-3 {
		t.Errorf("slowest node barrier wait %g, want ~0", b[2].Cat[cluster.Barrier])
	}
}

func TestRepeatedBarriers(t *testing.T) {
	sys := newTestSystem(t, 4, Options{})
	r, _ := sys.Alloc(4096, 0)
	const rounds = 10
	err := sys.Run(func(n *Node) error {
		for round := 0; round < rounds; round++ {
			if n.ID() == round%4 {
				if err := n.WriteAt(r, round, []byte{byte(round)}); err != nil {
					return err
				}
			}
			if err := n.Barrier(); err != nil {
				return err
			}
			var buf [1]byte
			if err := n.ReadAt(r, round, buf[:]); err != nil {
				return err
			}
			if buf[0] != byte(round) {
				return fmt.Errorf("node %d round %d read %d", n.ID(), round, buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLockMutualExclusionCounter(t *testing.T) {
	// Classic increment test: every node increments a shared counter k
	// times under a lock; the final value must be exact.
	const nprocs, k = 4, 25
	sys := newTestSystem(t, nprocs, Options{})
	r, _ := sys.Alloc(8, 0)
	err := sys.Run(func(n *Node) error {
		for i := 0; i < k; i++ {
			if err := n.WithLock(3, func() error {
				v, err := n.ReadInt64(r, 0)
				if err != nil {
					return err
				}
				return n.WriteInt64(r, 0, v+1)
			}); err != nil {
				return err
			}
		}
		return n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	err = sys.Run(func(n *Node) error {
		if n.ID() == 0 {
			v, err := n.ReadInt64(r, 0)
			got = v
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != nprocs*k {
		t.Errorf("counter = %d, want %d", got, nprocs*k)
	}
}

func TestLockErrors(t *testing.T) {
	sys := newTestSystem(t, 1, Options{Locks: 2, CondVars: 2})
	err := sys.Run(func(n *Node) error {
		if err := n.Acquire(5); err == nil {
			return fmt.Errorf("out-of-range lock accepted")
		}
		if err := n.Release(0); err == nil {
			return fmt.Errorf("release of unheld lock accepted")
		}
		if err := n.Setcv(7); err == nil {
			return fmt.Errorf("out-of-range cv accepted")
		}
		if err := n.Waitcv(-1); err == nil {
			return fmt.Errorf("negative cv accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCondVarStickySignal(t *testing.T) {
	// A signal sent before anyone waits must not be lost.
	sys := newTestSystem(t, 2, Options{})
	err := sys.Run(func(n *Node) error {
		if n.ID() == 0 {
			return n.Setcv(0)
		}
		// Node 1 may arrive long after the signal; Waitcv must return.
		return n.Waitcv(0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCondVarPingPong(t *testing.T) {
	// The §4.2 handoff pattern: 0 signals 1, 1 signals back, many times.
	sys := newTestSystem(t, 2, Options{})
	const rounds = 50
	r, _ := sys.Alloc(4, 0)
	err := sys.Run(func(n *Node) error {
		for i := 0; i < rounds; i++ {
			if n.ID() == 0 {
				if err := n.WriteInt32s(r, 0, []int32{int32(i)}); err != nil {
					return err
				}
				if err := n.Setcv(0); err != nil {
					return err
				}
				if err := n.Waitcv(1); err != nil {
					return err
				}
			} else {
				if err := n.Waitcv(0); err != nil {
					return err
				}
				var v [1]int32
				if err := n.ReadInt32s(r, 0, v[:]); err != nil {
					return err
				}
				if v[0] != int32(i) {
					return fmt.Errorf("round %d read %d", i, v[0])
				}
				if err := n.Setcv(1); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesPanicsAndErrors(t *testing.T) {
	sys := newTestSystem(t, 2, Options{})
	err := sys.Run(func(n *Node) error {
		if n.ID() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Error("panic not reported")
	}
	err = sys.Run(func(n *Node) error {
		if n.ID() == 0 {
			return fmt.Errorf("deliberate")
		}
		return nil
	})
	if err == nil {
		t.Error("error not reported")
	}
}

// TestLockRoundTripCharge pins what one lock round trip costs on the
// virtual clock. An uncontended acquire is a full round trip — ACQ to
// the manager, manager service, GRANT back — and the one-way REL costs
// the releaser its message processing only. A re-acquire cannot be
// granted before the manager has processed the REL, so it waits for
// the REL's arrival plus one service, then pays its own service and the
// GRANT. The phase-2 lock queue pays exactly this per job pop, so its
// makespan against the lock-free scattered mapping rests on these
// charges.
func TestLockRoundTripCharge(t *testing.T) {
	cc := cluster.Calibrated2005()
	sys, err := NewSystem(1, cc, Options{Locks: 1})
	if err != nil {
		t.Fatal(err)
	}
	msg := cc.Net.MessageCost(msgHeaderBytes)
	var acquire, release, reacquire float64
	err = sys.Run(func(n *Node) error {
		c := n.Clock()
		t0 := c.Now()
		if err := n.Acquire(0); err != nil {
			return err
		}
		t1 := c.Now()
		if err := n.Release(0); err != nil {
			return err
		}
		t2 := c.Now()
		if err := n.Acquire(0); err != nil {
			return err
		}
		t3 := c.Now()
		acquire, release, reacquire = t1-t0, t2-t1, t3-t2
		return n.Release(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if want := 2*msg + cc.ManagerService; !near(acquire, want) {
		t.Errorf("uncontended acquire charged %gs, want 2×message + service = %gs", acquire, want)
	}
	if want := cc.Net.PerMessageCPU; !near(release, want) {
		t.Errorf("release charged %gs, want the REL's message processing %gs", release, want)
	}
	// REL sent at t1 arrives at t1+msg and is serviced by t1+msg+service;
	// the re-acquire departs one service later and arrives msg after.
	if want := 2*msg + 2*cc.ManagerService - cc.Net.PerMessageCPU; !near(reacquire, want) {
		t.Errorf("re-acquire charged %gs, want %gs", reacquire, want)
	}
	if got := sys.Breakdowns()[0].Cat[cluster.LockCV]; !near(got, acquire+release+reacquire+cc.Net.PerMessageCPU) {
		t.Errorf("lock+cv category holds %gs, want every lock charge", got)
	}
}
