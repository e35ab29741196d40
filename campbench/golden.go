package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenSeed is the run seed whose campaigns have committed digests in
// golden.json: the first goldenCampaigns campaigns of a run at the
// benchmark size, and campaign 0 at the self-test size.
const (
	goldenSeed      = 2021
	goldenCampaigns = 64
)

//go:embed golden.json
var goldenJSON []byte

// goldens maps "<workload>/<programs>/<campaign seed>" to the digest.
var goldens = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic(fmt.Sprintf("golden.json: %v", err))
	}
	return m
}()

func goldenKey(name string, programs int, seed int64) string {
	return fmt.Sprintf("%s/%d/%d", name, programs, seed)
}

// goldenDigest returns the committed digest of a campaign, or "" when
// there is none.
func goldenDigest(name string, programs int, seed int64) string {
	return goldens[goldenKey(name, programs, seed)]
}

// writeGoldenFile runs the golden campaigns of every workload and writes
// their digests to path.
func writeGoldenFile(path, out string) error {
	m := map[string]string{}
	for _, w := range workloads {
		dir := filepath.Join(out, "golden-"+w.name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		add := func(c runConfig, k int) error {
			r, err := runCampaign(c, c.campaignSeed(k), false, false)
			if err != nil {
				return err
			}
			if r.inconsistent != nil {
				return r.inconsistent
			}
			m[goldenKey(w.name, c.programs, c.campaignSeed(k))] = r.digest
			return nil
		}
		err := add(runConfig{w: w, seed: goldenSeed, programs: w.tiny, workdir: dir}, 0)
		for k := 0; k < goldenCampaigns && err == nil; k++ {
			err = add(runConfig{w: w, seed: goldenSeed, programs: w.programs, workdir: dir}, k)
		}
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
