package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"neurocard/internal/core"
	"neurocard/internal/datagen"
	"neurocard/internal/harness"
	"neurocard/internal/server"
	"neurocard/internal/shard"
)

// modelName is the name every workload's model is served under; on the
// sharded workload it is the logical model, its shards joblight-s0/-s1.
const modelName = "joblight"

// daemon is one set-up estimator daemon: the real server handler on a
// loopback listener, with its models directory.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	base string
	dir  string

	setup     time.Duration            // dataset in memory → daemon answering
	steps     map[string]time.Duration // per set-up step
	ckptBytes int64                    // checkpoint (+ manifest) bytes on disk
	man       *shard.Manifest          // sharded only
	served    sync.WaitGroup
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a drain timeout leaves nothing to recover here
	d.served.Wait()
	d.srv.Close()
	_ = os.RemoveAll(d.dir) // best effort: the run directory is removed at exit too
}

// setupFunc builds one daemon; set-up is repeated and its median reported.
type setupFunc func(tr *tracer) (*daemon, error)

// setupMedian runs n set-ups, closing all but the last, and returns that
// daemon with the median set-up time.
func setupMedian(n int, tr *tracer, f setupFunc) (*daemon, float64, error) {
	var times []float64
	var d *daemon
	for i := 0; i < n; i++ {
		if d != nil {
			d.close()
		}
		var err error
		if d, err = f(tr); err != nil {
			return nil, 0, err
		}
		times = append(times, d.setup.Seconds())
	}
	return d, median(times), nil
}

func newDaemon(parent string) (*daemon, error) {
	dir, err := os.MkdirTemp(parent, "daemon-")
	if err != nil {
		return nil, err
	}
	return &daemon{dir: dir, steps: map[string]time.Duration{}}, nil
}

// step times one set-up step into steps and a child span of the set-up.
func step(tr *tracer, parent int64, steps map[string]time.Duration, name string, f func() error) error {
	dur, err := tr.timed(name, parent, f)
	steps[name] += dur
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// serve starts the daemon's listener and waits until /readyz answers 200.
func (d *daemon) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.served.Add(1)
	go func() {
		defer d.served.Done()
		if err := d.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	resp, err := http.Get(d.base + "/readyz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: status %d", resp.StatusCode)
	}
	return nil
}

// setupMonolithic trains one NeuroCard over the whole schema, checkpoints
// it at the given serving precision, loads it into a fresh daemon and, for
// ingest, opens its journal.
func setupMonolithic(ds *datagen.Dataset, o harness.Options, tmp string, prec core.Precision, withIngest bool) setupFunc {
	return func(tr *tracer) (*daemon, error) {
		d, err := newDaemon(tmp)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		end, root := tr.begin("setup", 0, 0)
		var est *core.Estimator
		ckpt := filepath.Join(d.dir, modelName+".ckpt")
		cfg := server.Config{ModelsDir: d.dir}
		if withIngest {
			cfg.JournalDir = filepath.Join(d.dir, "journals")
		}
		err = step(tr, root, d.steps, "core.Build", func() (err error) {
			est, err = core.Build(ds.Schema, coreConfig(o, ds.ContentCols, o.Seed))
			return err
		})
		if err == nil {
			err = step(tr, root, d.steps, "core.Train", func() error {
				if _, err := est.Train(o.TrainTuples); err != nil {
					return err
				}
				// Checkpoints store the serving precision, so refreshes that
				// reload the checkpoint keep serving at it.
				return est.SetPrecision(prec)
			})
		}
		if err == nil {
			err = step(tr, root, d.steps, "core.WriteCheckpointFile", func() error { return core.WriteCheckpointFile(est, ckpt) })
		}
		if err == nil {
			d.srv = server.New(cfg)
			err = step(tr, root, d.steps, "server.Registry.Load", func() error {
				_, err := d.srv.Registry().Load(modelName, ckpt)
				return err
			})
		}
		if err == nil && withIngest {
			err = step(tr, root, d.steps, "server.EnableIngest", func() error {
				_, err := d.srv.EnableIngest(modelName)
				return err
			})
		}
		if err == nil {
			err = step(tr, root, d.steps, "server.listen", func() error { return d.serve() })
		}
		end()
		d.setup = time.Since(start)
		if err != nil {
			d.abort()
			return nil, err
		}
		d.ckptBytes = fileSize(ckpt)
		return d, nil
	}
}

// setupSharded partitions the schema into two connected shards with
// shard.Partition, trains one NeuroCard per shard concurrently, checkpoints
// them next to their manifest and loads the logical model.
func setupSharded(ds *datagen.Dataset, o harness.Options, tmp string) setupFunc {
	return func(tr *tracer) (*daemon, error) {
		d, err := newDaemon(tmp)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		end, root := tr.begin("setup", 0, 0)
		err = step(tr, root, d.steps, "shard.Build", func() error {
			parts, err := shard.Partition(ds.Schema, 2)
			if err != nil {
				return err
			}
			d.man, err = shard.Build(ds.Schema, modelName, parts)
			return err
		})
		if err == nil {
			errs := make([]error, len(d.man.Shards))
			var mu sync.Mutex
			var wg sync.WaitGroup
			for i, sp := range d.man.Shards {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var est *core.Estimator
					steps := map[string]time.Duration{}
					errs[i] = step(tr, root, steps, "core.Build", func() error {
						sub, err := ds.Schema.SubSchema(sp.Tables)
						if err != nil {
							return err
						}
						cc := map[string][]string{}
						for _, t := range sp.Tables {
							if cols, ok := ds.ContentCols[t]; ok {
								cc[t] = cols
							}
						}
						// Per-shard seed stride as in the daemon's sharded training.
						est, err = core.Build(sub, coreConfig(o, cc, o.Seed+1_000_003*int64(i)))
						return err
					})
					if errs[i] == nil {
						errs[i] = step(tr, root, steps, "core.Train", func() error {
							_, err := est.Train(o.TrainTuples)
							return err
						})
					}
					if errs[i] == nil {
						errs[i] = step(tr, root, steps, "core.WriteCheckpointFile", func() error {
							return core.WriteCheckpointFile(est, filepath.Join(d.dir, sp.Checkpoint))
						})
					}
					mu.Lock()
					for k, v := range steps {
						d.steps[k] += v
					}
					mu.Unlock()
				}()
			}
			wg.Wait()
			err = errors.Join(errs...)
		}
		manifest := shard.ManifestPath(d.dir, modelName)
		if err == nil {
			err = step(tr, root, d.steps, "shard.Manifest.Write", func() error { return d.man.Write(manifest) })
		}
		if err == nil {
			d.srv = server.New(server.Config{ModelsDir: d.dir})
			err = step(tr, root, d.steps, "server.Registry.Load", func() error {
				_, err := d.srv.Registry().LoadLogical(modelName, "")
				return err
			})
		}
		if err == nil {
			err = step(tr, root, d.steps, "server.listen", func() error { return d.serve() })
		}
		end()
		d.setup = time.Since(start)
		if err != nil {
			d.abort()
			return nil, err
		}
		d.ckptBytes = fileSize(manifest)
		for _, sp := range d.man.Shards {
			d.ckptBytes += fileSize(filepath.Join(d.dir, sp.Checkpoint))
		}
		return d, nil
	}
}

// abort releases whatever a failed set-up started.
func (d *daemon) abort() {
	if d.hs != nil {
		d.close()
		return
	}
	if d.srv != nil {
		d.srv.Close()
	}
	_ = os.RemoveAll(d.dir)
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
