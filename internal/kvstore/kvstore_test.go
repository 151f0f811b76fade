package kvstore

import (
	"fmt"
	"sync"
	"testing"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	if _, ok := s.Get("k"); ok {
		t.Error("missing key resolved")
	}
	s.Put("k", []byte("v1"))
	v, ok := s.Get("k")
	if !ok || string(v) != "v1" {
		t.Fatalf("got %q ok=%v", v, ok)
	}
	s.Put("k", []byte("v2"))
	v, _ = s.Get("k")
	if string(v) != "v2" {
		t.Errorf("overwrite failed: %q", v)
	}
	s.Delete("k")
	if _, ok := s.Get("k"); ok {
		t.Error("delete failed")
	}
	s.Delete("k") // idempotent
	if s.Len() != 0 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New()
	s.Put("k", []byte("abc"))
	v, _ := s.Get("k")
	v[0] = 'X'
	v2, _ := s.Get("k")
	if string(v2) != "abc" {
		t.Error("caller mutation leaked into store")
	}
}

func TestUpdateAtomicReadModifyWrite(t *testing.T) {
	s := New()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.Update("n", func(cur []byte, exists bool) ([]byte, bool) {
					n := 0
					if exists {
						fmt.Sscanf(string(cur), "%d", &n)
					}
					return []byte(fmt.Sprintf("%d", n+1)), true
				})
			}
		}()
	}
	wg.Wait()
	v, _ := s.Get("n")
	var n int
	fmt.Sscanf(string(v), "%d", &n)
	if n != workers*perWorker {
		t.Errorf("lost updates: %d, want %d", n, workers*perWorker)
	}
}

func TestUpdateSkipWrite(t *testing.T) {
	s := New()
	s.Put("k", []byte("keep"))
	s.Update("k", func(cur []byte, exists bool) ([]byte, bool) {
		return []byte("discard"), false
	})
	v, _ := s.Get("k")
	if string(v) != "keep" {
		t.Errorf("write-skip ignored: %q", v)
	}
}

func TestJSONHelpers(t *testing.T) {
	s := New()
	type payload struct {
		A int
		B string
	}
	if err := s.PutJSON("j", payload{A: 7, B: "x"}); err != nil {
		t.Fatal(err)
	}
	var out payload
	ok, err := s.GetJSON("j", &out)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if out.A != 7 || out.B != "x" {
		t.Errorf("decoded %+v", out)
	}
	ok, err = s.GetJSON("missing", &out)
	if err != nil || ok {
		t.Errorf("missing: ok=%v err=%v", ok, err)
	}
	s.Put("bad", []byte("{not json"))
	if ok, err := s.GetJSON("bad", &out); !ok || err == nil {
		t.Errorf("bad JSON: ok=%v err=%v", ok, err)
	}
	if err := s.PutJSON("nope", make(chan int)); err == nil {
		t.Error("want marshal error")
	}
}
