// Command cawschedd is the online scheduling daemon (the slurmctld
// equivalent of this reproduction): it manages a tree/fat-tree cluster,
// accepts job submissions over a JSON-lines TCP protocol and places them
// with one of the communication-aware allocation algorithms. Emulated jobs
// hold their nodes for the Eq. 7-modified runtime, compressed by the
// -timescale factor.
//
// Usage:
//
//	cawschedd -listen 127.0.0.1:6817 -machine Theta -alg adaptive -timescale 100
//	cawschedd -topology cluster.conf -alg balanced
//	cawschedd -conf /etc/slurm/slurm.conf          # SLURM-style configuration
//
// With -conf, the slurm.conf's TopologyFile, SchedulerType (backfill
// on/off), JobAwareAlgorithm and JobAwareCostMode provide the defaults;
// explicit flags still win. Interact with the daemon using cmd/cawsctl.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/daemon"
	"repro/internal/slurmconf"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:6817", "TCP listen address")
		machine   = flag.String("machine", "Theta", "machine preset: Intrepid, Theta or Mira (ignored with -topology)")
		topoPath  = flag.String("topology", "", "SLURM topology.conf (overrides -machine)")
		algName   = flag.String("alg", "adaptive", "allocation algorithm: slurm, greedy, balanced, balanced-nopow2, adaptive or anneal")
		timeScale = flag.Float64("timescale", 1, "virtual seconds per wall second")
		noBF      = flag.Bool("nobackfill", false, "disable EASY backfilling")
		costMode  = flag.String("costmode", "effective-hops", "cost function: effective-hops, hop-bytes, distance-only")
		statePath = flag.String("state", "", "state file: restored at start if present, saved on shutdown (slurmctld StateSaveLocation)")
		confPath  = flag.String("conf", "", "slurm.conf providing TopologyFile/SchedulerType/JobAware* defaults")
		depth     = flag.Int("depth", daemon.DefaultQueueDepth, "per-connection pending-request queue depth (backpressure threshold)")
	)
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := run(*listen, *machine, *topoPath, *algName, *timeScale, *noBF, *costMode,
		*statePath, *confPath, *depth, explicit); err != nil {
		fmt.Fprintln(os.Stderr, "cawschedd:", err)
		os.Exit(1)
	}
}

func run(listen, machine, topoPath, algName string, timeScale float64, noBF bool,
	costMode, statePath, confPath string, depth int, explicit map[string]bool) error {
	var topo *topology.Topology
	var err error
	if confPath != "" {
		sc, err := slurmconf.Load(confPath)
		if err != nil {
			return err
		}
		if err := sc.Validate(); err != nil {
			return err
		}
		if !explicit["topology"] && sc.TopologyFile != "" {
			topoPath = sc.TopologyFile
		}
		if !explicit["alg"] && sc.JobAwareAlgorithm != "" {
			algName = sc.JobAwareAlgorithm
		}
		if !explicit["costmode"] && sc.JobAwareCostMode != "" {
			costMode = sc.JobAwareCostMode
		}
		if !explicit["nobackfill"] {
			noBF = !sc.Backfill()
		}
	}
	if topoPath != "" {
		topo, err = topology.LoadConfig(topoPath)
	} else {
		var preset workload.Preset
		preset, err = workload.PresetByName(machine)
		if err == nil {
			topo = preset.NewTopology()
		}
	}
	if err != nil {
		return err
	}
	alg, err := core.ParseAlgorithm(algName)
	if err != nil {
		return err
	}
	mode, err := costmodel.ParseMode(costMode)
	if err != nil {
		return err
	}
	cfg := daemon.Config{
		Topology:        topo,
		Algorithm:       alg,
		TimeScale:       timeScale,
		DisableBackfill: noBF,
		CostMode:        mode,
	}
	var d *daemon.Daemon
	if statePath != "" {
		if _, statErr := os.Stat(statePath); statErr == nil {
			d, err = daemon.RestoreFile(cfg, statePath)
			if err != nil {
				return fmt.Errorf("restoring %s: %w", statePath, err)
			}
			fmt.Printf("cawschedd: restored state from %s\n", statePath)
		}
	}
	if d == nil {
		d, err = daemon.New(cfg)
		if err != nil {
			return err
		}
	}
	srv := daemon.NewServer(d)
	srv.SetQueueDepth(depth)
	if err := srv.Listen(listen); err != nil {
		return err
	}
	fmt.Printf("cawschedd: %d nodes (%d leaves), algorithm %v, timescale %gx, listening on %s\n",
		topo.NumNodes(), topo.NumLeaves(), alg, timeScale, srv.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		if statePath != "" {
			if err := d.SaveStateFile(statePath); err != nil {
				fmt.Fprintln(os.Stderr, "cawschedd: saving state:", err)
			} else {
				fmt.Println("cawschedd: state saved to", statePath)
			}
		}
		fmt.Println("cawschedd: shutting down")
		srv.Close()
	}()
	return srv.Serve()
}
