/**
 * @file
 * MINT baseline (Yin et al., ASP-DAC 2024): SATA-style bit-sparse SNN
 * accelerator with 2-bit weight and membrane-potential quantization.
 * Quantization shrinks memory traffic 4x and the adders to 2-bit
 * datapaths; the compute still follows unstructured bit sparsity.
 */

#ifndef PROSPERITY_BASELINES_MINT_H
#define PROSPERITY_BASELINES_MINT_H

#include "arch/accelerator.h"

namespace prosperity {

/** Quantized bit-sparse accelerator model. */
class MintAccelerator : public Accelerator
{
  public:
    std::string name() const override { return "MINT"; }
    std::size_t numPes() const override;
    double areaMm2() const override { return 0.61; } // not in Table IV

    double staticPjPerCycle() const override;

  protected:
    double simulateSpikingGemm(const GemmShape& shape,
                               const SpikeOperand& spikes,
                               EnergyModel& energy) override;
};

} // namespace prosperity

#endif // PROSPERITY_BASELINES_MINT_H
