package experiments

import (
	"fmt"
	"os"
	"path/filepath"
)

// DiskStore is a content-addressed blob store: values are filed under their
// sha256-hex key in a two-level fan-out (dir/ab/abcdef…), written atomically
// (temp file + rename) so concurrent processes sharing one directory never
// observe a torn blob. It is mesad's response store: encoded response
// bodies survive process restarts (see internal/server).
//
// The store is deliberately append-only: entries are immutable (the key is
// a content hash of everything that determines the value), so there is
// nothing to invalidate — stale results are impossible, only missing ones.
type DiskStore struct {
	dir string
}

// OpenDiskStore opens (creating if necessary) a store rooted at dir.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: cache dir: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

// path maps a key to its blob path. Keys are sha256 hex strings; anything
// else is rejected by validateKey before reaching the filesystem.
func (s *DiskStore) path(key string) string {
	return filepath.Join(s.dir, key[:2], key[2:])
}

func validateKey(key string) error {
	if len(key) != 64 {
		return fmt.Errorf("experiments: bad store key %q (want sha256 hex)", key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("experiments: bad store key %q (want sha256 hex)", key)
		}
	}
	return nil
}

// Get returns the blob stored under key, reporting ok=false when absent.
func (s *DiskStore) Get(key string) (data []byte, ok bool, err error) {
	if err := validateKey(key); err != nil {
		return nil, false, err
	}
	data, err = os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// Put stores data under key atomically. An existing blob is left untouched:
// the key is a content hash, so an extant entry is already the right bytes.
func (s *DiskStore) Put(key string, data []byte) error {
	if err := validateKey(key); err != nil {
		return err
	}
	path := s.path(key)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Len reports the number of blobs in the store (tests and smoke checks; it
// walks the directory, so it is not for hot paths).
func (s *DiskStore) Len() (int, error) {
	n := 0
	err := filepath.Walk(s.dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && filepath.Base(path)[0] != '.' {
			n++
		}
		return nil
	})
	return n, err
}
