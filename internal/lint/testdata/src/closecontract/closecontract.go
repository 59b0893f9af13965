// Package closecontract is a golden fixture for the closecontract
// check. NewPool stands in for the repository's closer constructors
// (the check matches the bare name as well as the qualified forms).
package closecontract

type Pool struct{}

func NewPool(n int) (*Pool, error) { return &Pool{}, nil }

func (p *Pool) Close() {}

func (p *Pool) work() {}

func badLeak(n int) error {
	p, err := NewPool(n) // want:closecontract
	if err != nil {
		return err
	}
	p.work()
	return nil
}

func badEarlyReturn(n int, flag bool) error {
	p, err := NewPool(n) // want:closecontract
	if err != nil {
		return err
	}
	if flag {
		return nil // leaks p: Close only happens below
	}
	p.work()
	p.Close()
	return nil
}

func goodDefer(n int) error {
	p, err := NewPool(n)
	if err != nil {
		return err
	}
	defer p.Close()
	p.work()
	return nil
}

func goodExplicit(n int) {
	p, _ := NewPool(n)
	p.work()
	p.Close()
}

func goodHandoff(n int) (*Pool, error) {
	p, err := NewPool(n)
	if err != nil {
		return nil, err
	}
	return p, nil
}

type holder struct{ pool *Pool }

func goodStored(h *holder, n int) error {
	p, err := NewPool(n)
	if err != nil {
		return err
	}
	h.pool = p // ownership handed to h
	return nil
}

// Store and the blockstore variable mimic the qualified
// blockstore.Open spelling used by the rest of the repository, so the
// fixture also pins the contract on qualified constructors.
type Store struct{}

func (st *Store) Close() error { return nil }

func (st *Store) GC() error { return nil }

type blockstoreAPI struct{}

func (blockstoreAPI) Open(n int) (*Store, error) { return &Store{}, nil }

var blockstore blockstoreAPI

func badStoreLeak(n int) error {
	st, err := blockstore.Open(n) // want:closecontract
	if err != nil {
		return err
	}
	return st.GC()
}

func goodStoreDefer(n int) error {
	st, err := blockstore.Open(n)
	if err != nil {
		return err
	}
	defer st.Close()
	return st.GC()
}

type server struct{ blocks *Store }

func goodStoreStored(n int) (*server, error) {
	st, err := blockstore.Open(n)
	if err != nil {
		return nil, err
	}
	return &server{blocks: st}, nil
}
