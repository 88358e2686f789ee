package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// addDigest caches a result whose digest is key under key.
func addDigest(c *resultCache, key string) error {
	return c.add(key, &MapRequest{}, &MapResult{Digest: key})
}

// digestOf returns the digest of a cached result's bytes, or "" if they
// do not decode.
func digestOf(body []byte) string {
	res, err := decodeResult(body)
	if err != nil {
		return ""
	}
	return res.Digest
}

func TestLRUEviction(t *testing.T) {
	c := newResultCache(2)
	for _, k := range []string{"a", "b"} {
		if err := addDigest(c, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	// "a" is now most recent; adding "c" evicts "b".
	if err := addDigest(c, "c"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.get("b"); ok {
		t.Error("b survived past capacity")
	}
	for _, k := range []string{"a", "c"} {
		if body, ok := c.get(k); !ok || digestOf(body) != k {
			t.Errorf("entry %q lost or corrupted", k)
		}
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

func TestSingleflightCollapsesConcurrentSolves(t *testing.T) {
	c := newResultCache(8)
	var solves atomic.Int64
	release := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	sharedCount := atomic.Int64{}
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, shared, err := c.do(context.Background(), "key", &MapRequest{}, func() (*MapResult, error) {
				solves.Add(1)
				<-release
				return &MapResult{Digest: "solved"}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if d := digestOf(body); d != "solved" {
				t.Errorf("digest = %q", d)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Let every caller reach the flight before releasing the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := solves.Load(); n != 1 {
		t.Errorf("solve executed %d times, want 1", n)
	}
	if n := sharedCount.Load(); n != callers-1 {
		t.Errorf("%d callers shared, want %d", n, callers-1)
	}
	// The result landed in the LRU.
	if _, ok := c.get("key"); !ok {
		t.Error("singleflight result not cached")
	}
}

func TestSingleflightWaiterHonorsContext(t *testing.T) {
	c := newResultCache(8)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, err := c.do(context.Background(), "slow", &MapRequest{}, func() (*MapResult, error) {
			close(started)
			<-release
			return &MapResult{}, nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, shared, err := c.do(ctx, "slow", &MapRequest{}, func() (*MapResult, error) {
		t.Error("waiter must not start its own solve")
		return nil, nil
	})
	// A waiter whose own deadline fires shared nothing: shared must be
	// false so the server tallies the request as a timeout, not a dedup.
	if shared || err != context.DeadlineExceeded {
		t.Errorf("waiter got shared=%v err=%v, want unshared deadline error", shared, err)
	}
	close(release)
}

func TestSingleflightErrorsAreNotCached(t *testing.T) {
	c := newResultCache(8)
	attempts := 0
	_, _, err := c.do(context.Background(), "k", &MapRequest{}, func() (*MapResult, error) {
		attempts++
		return nil, fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if _, ok := c.get("k"); ok {
		t.Fatal("error cached")
	}
	body, _, err := c.do(context.Background(), "k", &MapRequest{}, func() (*MapResult, error) {
		attempts++
		return &MapResult{Digest: "ok"}, nil
	})
	if err != nil || digestOf(body) != "ok" {
		t.Fatalf("retry failed: %v", err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
}

// TestCacheRace stresses the LRU + singleflight under concurrent mixed
// traffic; meaningful under -race.
func TestCacheRace(t *testing.T) {
	c := newResultCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%24)
				if i%3 == 0 {
					if err := addDigest(c, key); err != nil {
						t.Error(err)
					}
					continue
				}
				body, _, err := c.do(context.Background(), key, &MapRequest{}, func() (*MapResult, error) {
					return &MapResult{Digest: key}, nil
				})
				if err != nil || digestOf(body) != key {
					t.Errorf("do(%s): body=%s err=%v", key, body, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.len() > 16 {
		t.Errorf("cache grew to %d past capacity 16", c.len())
	}
}
