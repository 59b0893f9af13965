// Golden fixture for the blockstore closer constructors: a Store owns
// open pack handles and the owner lock, so every construction must Close on all
// paths or hand ownership off. The `blockstore` qualifier is matched
// by name only, so no import is needed.
package closecontract

func badBlockStoreLeak(dir string) error {
	bs, err := blockstore.Open(dir, blockstore.Options{}) // want:closecontract
	if err != nil {
		return err
	}
	bs.Intern(nil)
	return nil
}

func badBlockStoreNewEarlyReturn(dir string, flag bool) error {
	bs, err := blockstore.New(dir) // want:closecontract
	if err != nil {
		return err
	}
	if flag {
		return nil // leaks bs: Close only happens below
	}
	bs.Close()
	return nil
}

func goodBlockStoreDefer(dir string) error {
	bs, err := blockstore.Open(dir, blockstore.Options{})
	if err != nil {
		return err
	}
	defer bs.Close()
	bs.Intern(nil)
	return nil
}

func goodBlockStoreHandoff(dir string) (*Store, error) {
	bs, err := blockstore.New(dir)
	if err != nil {
		return nil, err
	}
	return bs, nil
}

// Store stands in for the real blockstore.Store in the fixture.
type Store struct{}
