package main

import (
	"bytes"
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGofmt fails on any .go file of the module, outside dot-dirs and
// testdata/, that differs from its gofmt rendering.
func TestGofmt(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		got, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			return nil
		}
		if !bytes.Equal(src, got) {
			rel, _ := filepath.Rel(root, path)
			t.Errorf("%s is not gofmt-formatted: run gofmt -w %s", rel, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
