/**
 * @file
 * Stellar baseline (Mao et al., HPCA 2024): algorithm-hardware co-design
 * that replaces LIF neurons with FS ("few spikes") neurons, trading a
 * retrained model for far sparser activations, processed on a 168-PE
 * 12-bit systolic array.
 *
 * Stellar's trained FS models are closed-source; as in the paper (which
 * falls back to Stellar's reported statistics), the FS activation is
 * modeled by the measured Table I density ratio (bit 34.21% -> FS 9.80%
 * on VGG-16, i.e. 3.49x sparser), applied to the measured bit count of
 * the actual matrix. Stellar supports spiking CNNs only.
 */

#ifndef PROSPERITY_BASELINES_STELLAR_H
#define PROSPERITY_BASELINES_STELLAR_H

#include "arch/accelerator.h"

namespace prosperity {

/** FS-neuron co-design accelerator model (spiking CNNs only). */
class StellarAccelerator : public Accelerator
{
  public:
    std::string name() const override { return "Stellar"; }
    std::size_t numPes() const override;
    double areaMm2() const override;

    double staticPjPerCycle() const override;

    /** FS-recoded density for a given LIF bit density. */
    static double fsDensity(double bit_density);

  protected:
    double simulateSpikingGemm(const GemmShape& shape,
                               const SpikeOperand& spikes,
                               EnergyModel& energy) override;
};

} // namespace prosperity

#endif // PROSPERITY_BASELINES_STELLAR_H
