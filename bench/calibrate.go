package main

import (
	"fmt"

	"semibfs/internal/core"
)

// printCalibration measures, at the default seed, the quantities the
// workload specs freeze as constants. Rerun it after a change that is meant
// to move them and update the specs in that change.
func printCalibration() error {
	td, pr := tdSSDSpec.sized(false), prTailsSpec.sized(false)
	for _, c := range []struct {
		w        *workload
		scale    int
		scenario core.Scenario
	}{{tdSSDStack, td.scale, td.scenario}, {prTails, pr.scale, pr.scenario}} {
		list, err := genGraph(nil, newPass(), c.scale, c.w.ctx(defaultSeed, false).graphSeed)
		if err != nil {
			return err
		}
		sys, err := buildSystem(nil, stepTimes{}, list, c.scenario)
		if err != nil {
			return err
		}
		nvmBytes := sys.sf.NVMBytes() + sys.hb.NVMBytes()
		if r := int64(c.scenario.Replicas); r > 1 {
			nvmBytes /= r
		}
		fmt.Printf("%-13s SCALE %d: NVM bytes %d (one replica), 1/8 = %d B = %d KiB; frozen cache budget %d B\n",
			c.w.name, c.scale, nvmBytes, nvmBytes/8, nvmBytes/8>>10, c.scenario.CacheBytes)
		sys.close()
	}
	for _, spec := range []serveSpec{servePCIeSpec, servePCIeSmall} {
		sat, p50, err := calibrateServe(defaultSeed, spec)
		if err != nil {
			return err
		}
		fmt.Printf("serve-pcie    SCALE %d: closed-loop saturation %.0f qps (frozen %.0f), phase A p50 %.6g s (frozen %.6g)\n",
			spec.scale, sat, spec.satQPS, p50, spec.phaseAP50)
	}
	return nil
}
