package carbon

// Operational carbon models of §7.1. Execution carbon follows Eqs 7.1-7.4;
// transmission carbon follows Eq 7.5. Embodied carbon is deliberately
// excluded: the paper argues it is a sunk cost equal across regions and so
// cancels out of every relative comparison Caribou makes.

// Execution model constants (§7.1, with citations as in the paper).
const (
	// PUE is the power usage effectiveness applied to all datacenter
	// energy; 1.11 is the midpoint of the 1.07-1.15 AWS range.
	PUE = 1.11
	// MemPowerKWPerGB is the power draw attributed to provisioned
	// function memory (3.725e-4 kW/GB).
	MemPowerKWPerGB = 3.725e-4
	// MBPerVCPU converts a Lambda memory size to its vCPU share
	// (n_vcpu = mem/1769).
	MBPerVCPU = 1769.0
	// PMinKWPerVCPU and PMaxKWPerVCPU bound the linear
	// utilization-based per-core power model.
	PMinKWPerVCPU = 7.5e-4
	PMaxKWPerVCPU = 3.5e-3
)

// ExecutionEnergyKWh returns the energy attributed to one function
// execution: memMB of provisioned memory for durationSec seconds at the
// given average vCPU utilization in [0, 1]. PUE is not applied here; it is
// applied with the grid intensity in ExecutionCarbon.
func ExecutionEnergyKWh(memMB, durationSec, cpuUtil float64) float64 {
	if memMB < 0 {
		memMB = 0
	}
	if durationSec < 0 {
		durationSec = 0
	}
	if cpuUtil < 0 {
		cpuUtil = 0
	}
	if cpuUtil > 1 {
		cpuUtil = 1
	}
	hours := durationSec / 3600
	eMem := MemPowerKWPerGB * (memMB / 1024) * hours // Eq 7.2
	nVCPU := memMB / MBPerVCPU
	pVCPU := PMinKWPerVCPU + cpuUtil*(PMaxKWPerVCPU-PMinKWPerVCPU) // Eq 7.3
	eProc := pVCPU * nVCPU * hours                                 // Eq 7.4
	return eMem + eProc
}

// ExecutionCarbon returns grams of CO2-eq for one execution (Eq 7.1):
// grid intensity (gCO2eq/kWh) times energy times PUE.
func ExecutionCarbon(intensity, memMB, durationSec, cpuUtil float64) float64 {
	return intensity * ExecutionEnergyKWh(memMB, durationSec, cpuUtil) * PUE
}

// ExecutionFactors returns the duration-independent coefficients of the
// energy model: ExecutionEnergyKWh(mem, dur, util) computes exactly
// memKW·hours + procKW·hours, and both coefficients are the literal
// intermediate products of that evaluation, so a caller that fixes
// (memMB, cpuUtil) — e.g. per workflow stage — can hoist them and
// reproduce ExecutionCarbon bit for bit as intensity·(memKW·h+procKW·h)·PUE
// (pinned by TestExecutionFactorsBitIdentical).
func ExecutionFactors(memMB, cpuUtil float64) (memKW, procKW float64) {
	if memMB < 0 {
		memMB = 0
	}
	if cpuUtil < 0 {
		cpuUtil = 0
	}
	if cpuUtil > 1 {
		cpuUtil = 1
	}
	memKW = MemPowerKWPerGB * (memMB / 1024)
	nVCPU := memMB / MBPerVCPU
	pVCPU := PMinKWPerVCPU + cpuUtil*(PMaxKWPerVCPU-PMinKWPerVCPU)
	procKW = pVCPU * nVCPU
	return memKW, procKW
}

// TransmissionModel parameterizes Eq 7.5 with separate inter- and
// intra-region energy factors (kWh/GB). The paper brackets today's
// uncertain network energy models with a best case (0.001 everywhere) and a
// worst case (0.005 inter-region, free intra-region), and sweeps the factor
// in §9.3.
type TransmissionModel struct {
	InterRegionKWhPerGB float64
	IntraRegionKWhPerGB float64
}

// BestCase is the paper's best-case scenario for offloading: 0.001 kWh/GB
// for any transmission, including within a region.
func BestCase() TransmissionModel {
	return TransmissionModel{InterRegionKWhPerGB: 0.001, IntraRegionKWhPerGB: 0.001}
}

// WorstCase is the paper's worst-case scenario: 0.005 kWh/GB inter-region
// and free intra-region transmission, which maximally penalizes offloading.
func WorstCase() TransmissionModel {
	return TransmissionModel{InterRegionKWhPerGB: 0.005, IntraRegionKWhPerGB: 0}
}

// Uniform returns a model applying the same factor everywhere
// (§9.3 "Equal Intra/Inter Tx Factor" scenario).
func Uniform(kwhPerGB float64) TransmissionModel {
	return TransmissionModel{InterRegionKWhPerGB: kwhPerGB, IntraRegionKWhPerGB: kwhPerGB}
}

// FreeIntra returns a model with the given inter-region factor and free
// intra-region transmission (§9.3 "Free Intra Tx Factor" scenario).
func FreeIntra(interKWhPerGB float64) TransmissionModel {
	return TransmissionModel{InterRegionKWhPerGB: interKWhPerGB, IntraRegionKWhPerGB: 0}
}

// Carbon returns grams of CO2-eq for moving bytes from a grid with
// intensity srcIntensity to one with dstIntensity (Eq 7.5). The route
// intensity is approximated as the endpoint average, the simplification the
// paper adopts from prior network energy characterizations.
func (m TransmissionModel) Carbon(srcIntensity, dstIntensity float64, sameRegion bool, bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	factor := m.InterRegionKWhPerGB
	route := (srcIntensity + dstIntensity) / 2
	if sameRegion {
		factor = m.IntraRegionKWhPerGB
		route = srcIntensity
	}
	gb := bytes / 1e9
	return route * factor * gb
}
