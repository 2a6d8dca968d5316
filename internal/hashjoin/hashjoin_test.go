package hashjoin

import (
	"testing"

	"mxtasking/internal/mxtask"
	"mxtasking/internal/tpch"
)

func newRT(workers int) *mxtask.Runtime {
	return mxtask.New(mxtask.Config{
		Workers: workers,
	})
}

func TestTableBasic(t *testing.T) {
	tab := NewTable(100)
	for k := uint64(1); k <= 100; k++ {
		tab.Insert(k, uint8(k%25))
	}
	if tab.Count() != 100 {
		t.Fatalf("Count = %d", tab.Count())
	}
	for k := uint64(1); k <= 100; k++ {
		v, ok := tab.Lookup(k)
		if !ok || v != uint8(k%25) {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
	if _, ok := tab.Lookup(9999); ok {
		t.Fatal("lookup of absent key succeeded")
	}
}

func TestTableCollisions(t *testing.T) {
	tab := NewTable(4)
	// Force growth-free collisions within a tiny table.
	keys := []uint64{1, 17, 33, 49}
	for i, k := range keys {
		tab.Insert(k, uint8(i))
	}
	for i, k := range keys {
		if v, ok := tab.Lookup(k); !ok || v != uint8(i) {
			t.Fatalf("collision chain broken for key %d", k)
		}
	}
}

// referenceJoin computes the expected output cardinality.
func referenceJoin(customers []tpch.Customer, orders []tpch.Order) int64 {
	set := make(map[uint64]bool, len(customers))
	for _, c := range customers {
		set[c.CustKey] = true
	}
	n := int64(0)
	for _, o := range orders {
		if set[o.CustKey] {
			n++
		}
	}
	return n
}

func TestJoinMatchesReference(t *testing.T) {
	customers := tpch.Customers(3000, 1)
	orders := tpch.Orders(30000, 3000, 2)
	want := referenceJoin(customers, orders)

	for _, granularity := range []int{1, 8, 128, 4096, 100000} {
		rt := newRT(4)
		rt.Start()
		j := NewJoin(rt, customers, orders, granularity)
		got := j.Run()
		rt.Stop()
		if got != want {
			t.Fatalf("granularity %d: output = %d, want %d", granularity, got, want)
		}
	}
}

func TestJoinSingleWorker(t *testing.T) {
	customers := tpch.Customers(500, 3)
	orders := tpch.Orders(5000, 500, 4)
	want := referenceJoin(customers, orders)
	rt := newRT(1)
	rt.Start()
	defer rt.Stop()
	if got := NewJoin(rt, customers, orders, 64).Run(); got != want {
		t.Fatalf("output = %d, want %d", got, want)
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	rt := newRT(2)
	rt.Start()
	defer rt.Stop()
	if got := NewJoin(rt, nil, nil, 64).Run(); got != 0 {
		t.Fatalf("empty join produced %d tuples", got)
	}
	customers := tpch.Customers(10, 1)
	if got := NewJoin(rt, customers, nil, 64).Run(); got != 0 {
		t.Fatalf("probe-less join produced %d tuples", got)
	}
	orders := tpch.Orders(100, 10, 1)
	if got := NewJoin(rt, nil, orders, 64).Run(); got != 0 {
		t.Fatalf("build-less join produced %d tuples", got)
	}
}

func TestTPCHGeneratorShape(t *testing.T) {
	customers := tpch.Customers(900, 5)
	if len(customers) != 900 {
		t.Fatalf("customer count = %d", len(customers))
	}
	for i, c := range customers {
		if c.CustKey != uint64(i+1) {
			t.Fatalf("custkey %d at row %d", c.CustKey, i)
		}
		if c.NationKey >= 25 {
			t.Fatalf("nation key %d out of TPC-H range", c.NationKey)
		}
	}
	orders := tpch.Orders(9000, 900, 6)
	active := uint64(900 * 2 / 3)
	for _, o := range orders {
		if o.CustKey == 0 || o.CustKey > active {
			t.Fatalf("order custkey %d outside active range [1,%d]", o.CustKey, active)
		}
	}
	// Determinism.
	again := tpch.Orders(9000, 900, 6)
	for i := range orders {
		if orders[i] != again[i] {
			t.Fatal("generator not deterministic")
		}
	}
}
