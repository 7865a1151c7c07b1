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
			a, _ := ref.Lookup(k)
			b, ok := r.Lookup(k)
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

// TestMaxKeysEviction: an over-bound registry evicts the least recently
// used key (insertion counts as use; key order on ties), counts the
// eviction, bumps the version, and notifies the change hook.
func TestMaxKeysEviction(t *testing.T) {
	r := NewSharded(4)
	r.MaxKeys = 3
	var notified []Key
	r.NotifyChange = func(k Key) { notified = append(notified, k) }

	for i := 0; i < 3; i++ {
		r.Add(srec(fmt.Sprintf("op%d", i), "cpu", "d", 1))
	}
	if r.Len() != 3 || r.Evictions() != 0 {
		t.Fatalf("under the bound nothing evicts: len=%d evictions=%d", r.Len(), r.Evictions())
	}
	// Query op0 and op2: op1 becomes the least recently used key (its
	// only use is its insertion).
	r.Best("op0", "cpu", "d")
	r.Best("op2", "cpu", "d")
	v := r.Version()
	r.Add(srec("op3", "cpu", "d", 1))
	if r.Len() != 3 {
		t.Fatalf("len=%d after over-bound add, want 3", r.Len())
	}
	if _, ok := r.Lookup(Key{"op1", "cpu", "d"}); ok {
		t.Fatal("least-recently-used op1 should have been evicted")
	}
	if r.Evictions() != 1 {
		t.Fatalf("evictions=%d, want 1", r.Evictions())
	}
	if r.Version() <= v {
		t.Fatal("eviction must bump the version")
	}
	want := []Key{{"op3", "cpu", "d"}, {"op1", "cpu", "d"}}
	if !reflect.DeepEqual(notified[len(notified)-2:], want) {
		t.Fatalf("NotifyChange saw %v, want add+eviction %v", notified, want)
	}

	// Eviction follows query recency: op0 is now the stalest (op2, op3
	// queried after it).
	r.Best("op3", "cpu", "d")
	r.Best("op2", "cpu", "d")
	r.Best("op0", "cpu", "d")
	r.Best("op2", "cpu", "d")
	r.Best("op3", "cpu", "d")
	r.Add(srec("op4", "cpu", "d", 1))
	if _, ok := r.Lookup(Key{"op0", "cpu", "d"}); ok {
		t.Fatal("least-recently-queried op0 should have been evicted")
	}

	// Touch counts as a query: touching a key saves it.
	r.Touch("op2", "cpu", "d") // wrong order would evict op2 next
	r.Best("op3", "cpu", "d")
	r.Best("op4", "cpu", "d")
	r.Touch("op2", "cpu", "d")
	r.Add(srec("op5", "cpu", "d", 1))
	if _, ok := r.Lookup(Key{"op2", "cpu", "d"}); !ok {
		t.Fatal("touched op2 should have survived eviction")
	}

	// An improving re-add keeps the query history (no self-eviction of a
	// hot key just because it improved).
	r.Best("op5", "cpu", "d")
	r.Add(srec("op5", "cpu", "d", 0.5))
	r.Add(srec("op6", "cpu", "d", 1))
	if _, ok := r.Lookup(Key{"op5", "cpu", "d"}); !ok {
		t.Fatal("improved hot key op5 should keep its query history and survive")
	}
}

// TestVersionSemantics: the version changes exactly on accepted
// mutations — improving adds and evictions — never on rejected offers
// or reads.
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

// TestRegistryConcurrentShardedRace: publishers, readers, touchers and
// snapshotters hammer a small sharded registry with eviction enabled.
// Run under -race in CI; afterwards the registry must still respect its
// bound and serve a consistent best set.
func TestRegistryConcurrentShardedRace(t *testing.T) {
	r := NewSharded(4)
	r.MaxKeys = 12
	var invalidations sync.Map
	r.NotifyChange = func(k Key) { invalidations.Store(k, true) }

	const publishers = 8
	const readers = 8
	const perPublisher = 200
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
				r.Touch(fmt.Sprintf("task%d", (m+1)%4), "cpu", "dag1")
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
				task := fmt.Sprintf("task%d", (p+i)%6)
				secs := float64(1+(i*7+p*13)%100) / 10
				r.Add(srec(task, "cpu", fmt.Sprintf("dag%d", i%3), secs))
			}
		}(p)
	}
	pubWG.Wait()
	close(stop)
	readWG.Wait()

	if r.Len() > r.MaxKeys {
		t.Fatalf("registry exceeded MaxKeys under concurrency: %d > %d", r.Len(), r.MaxKeys)
	}
	if got := int64(len(r.Keys())); got != int64(r.Len()) {
		t.Fatalf("Len()=%d disagrees with Keys()=%d", r.Len(), got)
	}
	// Every surviving key serves a record consistent with its own entry,
	// and the snapshot is loadable and equal to itself.
	for _, k := range r.Keys() {
		rec, ok := r.Lookup(k)
		if !ok || rec.Seconds <= 0 {
			t.Fatalf("key %v has a broken entry: %+v ok=%v", k, rec, ok)
		}
	}
	var snap bytes.Buffer
	if err := r.Log().Save(&snap); err != nil {
		t.Fatal(err)
	}
	reloaded, err := measure.Load(bytes.NewReader(snap.Bytes()))
	if err != nil || len(reloaded.Records) != r.Len() {
		t.Fatalf("snapshot round trip: %d records err=%v, want %d", len(reloaded.Records), err, r.Len())
	}
}
