/**
 * @file
 * NVIDIA A100 baseline: SNN inference through PyTorch + SpikingJelly,
 * which materializes spikes as dense tensors and runs ordinary GEMMs on
 * the tensor cores. The model is a roofline with three terms the paper's
 * analysis identifies: (1) tensor-core under-utilization on accumulate-
 * only spiking GeMMs, (2) HBM bandwidth, (3) per-kernel framework launch
 * overhead — which is why the big SpikeBERT keeps the A100 competitive
 * in latency while its energy stays two orders of magnitude higher.
 */

#ifndef PROSPERITY_BASELINES_A100_H
#define PROSPERITY_BASELINES_A100_H

#include "arch/accelerator.h"

namespace prosperity {

/** Roofline GPU model of A100 SNN execution. */
class A100Accelerator : public Accelerator
{
  public:
    std::string name() const override { return "A100"; }
    std::size_t numPes() const override { return 6912; } // CUDA cores
    double areaMm2() const override;

    /** The GPU executes densely regardless of sparsity. */
    bool readsSpikes() const override { return false; }

    /** Utilization the tensor cores reach for a kernel of this shape. */
    static double utilization(const GemmShape& shape);

  protected:
    double simulateSpikingGemm(const GemmShape& shape,
                               const SpikeOperand& spikes,
                               EnergyModel& energy) override;
    double simulateDenseGemm(const GemmShape& shape,
                             EnergyModel& energy) override;
    double simulateSfu(double ops, EnergyModel& energy) override;

  private:
    double kernelCycles(const GemmShape& shape, EnergyModel& energy);
};

} // namespace prosperity

#endif // PROSPERITY_BASELINES_A100_H
