package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// A reference file, reference/<workload>.json, maps each of the seeds 0 to
// referenceSeeds-1 to the digest of every unit key one pass produces at
// that seed.
type referenceFile map[string]map[string]string

func loadReference(workload string) (referenceFile, error) {
	data, err := referenceFS.ReadFile("reference/" + workload + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ref referenceFile
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference for %s: %w", workload, err)
	}
	return ref, nil
}

const referenceSeeds = 100

// recordReference runs one untraced pass per reference seed and writes the
// digests to path. A unit that fails aborts the recording.
func recordReference(w *workload, path string) error {
	ref := referenceFile{}
	for seed := 0; seed < referenceSeeds; seed++ {
		in, _, err := w.setup(uint64(seed))
		if err != nil {
			return fmt.Errorf("seed %d setup: %w", seed, err)
		}
		p := &pass{}
		if err := in.run(p, false); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		digests := map[string]string{}
		for _, u := range p.units {
			if u.err != nil {
				return fmt.Errorf("seed %d %s: %w", seed, u.key, u.err)
			}
			digests[u.key] = hexDigest(digest(u.value))
		}
		ref[fmt.Sprint(seed)] = digests
		fmt.Fprintf(os.Stderr, "%s seed %d: %d unit groups\n", w.name, seed, len(digests))
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
