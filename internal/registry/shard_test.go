package registry

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/measure"
)

// srec builds a synthetic record whose steps are unique per (key, time),
// so byte-level comparisons catch any entry mix-up.
func srec(task, target, dag string, seconds float64) measure.Record {
	return measure.Record{
		Task: task, Target: target, DAG: dag,
		Steps:   []byte(fmt.Sprintf(`[{"n":"%s/%s/%s@%g"}]`, task, target, dag, seconds)),
		Seconds: seconds, Noiseless: seconds,
	}
}

// fill populates a registry with a deterministic spread of keys designed
// to land on many different shards: several workloads × targets × dags,
// including target-less entries, with improving re-offers mixed in.
func fill(r *Registry) {
	for w := 0; w < 5; w++ {
		for tgt := 0; tgt < 3; tgt++ {
			for d := 0; d < 2; d++ {
				task := fmt.Sprintf("task%d", w)
				target := fmt.Sprintf("target%d", tgt)
				dag := fmt.Sprintf("dag%d", d)
				r.Add(srec(task, target, dag, float64(10+w+tgt+d)))
				r.Add(srec(task, target, dag, float64(1+w))) // improves
				r.Add(srec(task, target, dag, float64(50)))  // ignored
			}
		}
		r.Add(srec(fmt.Sprintf("task%d", w), "", "", 0.5)) // target-less: key (task, "", "")
	}
}

// TestShardedBitIdentity: every externally visible output — Keys, Best,
// Query, Log, and the serialized snapshot bytes — is identical at shard
// counts 1, 4 and 16. Sharding must be purely an internal concurrency
// detail.
func TestShardedBitIdentity(t *testing.T) {
	ref := NewSharded(1)
	fill(ref)
	var refSnap bytes.Buffer
	if err := ref.Log().Save(&refSnap); err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{4, 16} {
		r := NewSharded(n)
		fill(r)
		if !reflect.DeepEqual(ref.Keys(), r.Keys()) {
			t.Fatalf("shards=%d: keys diverged:\nwant %v\n got %v", n, ref.Keys(), r.Keys())
		}
		for _, k := range ref.Keys() {
			a, _ := ref.Best(k.Workload, k.Target, k.DAG)
			b, ok := r.Best(k.Workload, k.Target, k.DAG)
			if !ok || a.Seconds != b.Seconds || !bytes.Equal(a.Steps, b.Steps) {
				t.Fatalf("shards=%d: entry %v diverged:\nwant %+v\n got %+v", n, k, a, b)
			}
		}
		// Best: a hit, the target-less key, and a miss.
		for w := 0; w < 5; w++ {
			task := fmt.Sprintf("task%d", w)
			a, aok := ref.Best(task, "target1", "dag0")
			b, bok := r.Best(task, "target1", "dag0")
			if aok != bok || a.Seconds != b.Seconds {
				t.Fatalf("shards=%d: Best(%s) diverged", n, task)
			}
			a, aok = ref.Best(task, "", "")
			b, bok = r.Best(task, "", "")
			if !aok || !bok || a.Seconds != b.Seconds || a.Target != b.Target {
				t.Fatalf("shards=%d: target-less Best(%s) diverged", n, task)
			}
			_, aok = ref.Best(task, "no-such-target", "no-such-dag")
			_, bok = r.Best(task, "no-such-target", "no-such-dag")
			if aok || bok {
				t.Fatalf("shards=%d: Best(%s) served a key that was never stored", n, task)
			}
		}
		// Query with filters and limits.
		for _, q := range []struct {
			w, tgt string
			limit  int
		}{{"", "", 0}, {"task2", "", 0}, {"", "target1", 0}, {"task1", "target0", 0}, {"", "", 7}} {
			a, b := ref.Query(q.w, q.tgt, q.limit), r.Query(q.w, q.tgt, q.limit)
			if !reflect.DeepEqual(a.Records, b.Records) {
				t.Fatalf("shards=%d: Query(%q,%q,%d) diverged", n, q.w, q.tgt, q.limit)
			}
		}
		// The serialized snapshot is byte-for-byte identical.
		var snap bytes.Buffer
		if err := r.Log().Save(&snap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refSnap.Bytes(), snap.Bytes()) {
			t.Fatalf("shards=%d: snapshot bytes diverged", n)
		}
	}
}

// TestShardedRoundsUp: NewSharded rounds to the next power of two and
// tolerates degenerate counts.
func TestShardedRoundsUp(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		if r := NewSharded(c.in); len(r.shards) != c.want {
			t.Errorf("NewSharded(%d): %d shards, want %d", c.in, len(r.shards), c.want)
		}
	}
}

// TestVersionSemantics: the version changes exactly on accepted
// mutations — improving adds — never on rejected offers or reads.
func TestVersionSemantics(t *testing.T) {
	r := New()
	v0 := r.Version()
	if r.Add(srec("", "cpu", "d", 1)) || r.Version() != v0 {
		t.Fatal("invalid record must not bump the version")
	}
	r.Add(srec("op", "cpu", "d", 2))
	v1 := r.Version()
	if v1 == v0 {
		t.Fatal("accepted add must bump the version")
	}
	r.Add(srec("op", "cpu", "d", 3)) // slower: rejected
	r.Best("op", "cpu", "d")
	r.Query("", "", 0)
	if r.Version() != v1 {
		t.Fatal("rejected offers and reads must not bump the version")
	}
	r.Add(srec("op", "cpu", "d", 1)) // improves
	if r.Version() == v1 {
		t.Fatal("improvement must bump the version")
	}
}

// TestRegistryConcurrentShardedRace: publishers race readers (Best,
// Query, Keys) on a small sharded registry. Run under -race in CI;
// afterwards the registry must be exactly what one goroutine feeding the
// same records in order builds — byte for byte in its saved log — since
// the per-key minimum does not depend on arrival order (DESIGN.md,
// "Consistency model").
func TestRegistryConcurrentShardedRace(t *testing.T) {
	r := NewSharded(4)
	var invalidations sync.Map
	r.NotifyChange = func(k Key) { invalidations.Store(k, true) }

	const publishers = 8
	const readers = 8
	const perPublisher = 200
	// Equal times for one key build equal records (srec), so no tie
	// between two different programs can make the winner order-dependent.
	record := func(p, i int) measure.Record {
		task := fmt.Sprintf("task%d", (p+i)%6)
		secs := float64(1+(i*7+p*13)%100) / 10
		return srec(task, "cpu", fmt.Sprintf("dag%d", i%3), secs)
	}
	var pubWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for m := 0; m < readers; m++ {
		readWG.Add(1)
		go func(m int) {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Best(fmt.Sprintf("task%d", m%4), "cpu", "dag0")
				r.Query("", "cpu", 5)
				r.Keys()
			}
		}(m)
	}
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			for i := 0; i < perPublisher; i++ {
				r.Add(record(p, i))
			}
		}(p)
	}
	pubWG.Wait()
	close(stop)
	readWG.Wait()

	want := NewSharded(1)
	for p := 0; p < publishers; p++ {
		for i := 0; i < perPublisher; i++ {
			want.Add(record(p, i))
		}
	}
	var got, ref bytes.Buffer
	if err := r.Log().Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.Log().Save(&ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Fatalf("concurrent registry's log differs from the sequential one:\n got %s\nwant %s", got.Bytes(), ref.Bytes())
	}
	if r.Len() != want.Len() || len(r.Keys()) != r.Len() {
		t.Fatalf("Len()=%d, Keys()=%d, want %d", r.Len(), len(r.Keys()), want.Len())
	}
	for _, k := range want.Keys() {
		if _, ok := invalidations.Load(k); !ok {
			t.Fatalf("key %v was added without a NotifyChange", k)
		}
	}
}
