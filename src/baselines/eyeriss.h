/**
 * @file
 * Eyeriss baseline (Chen et al., JSSC 2016): a dense row-stationary DNN
 * accelerator with 168 8-bit MAC PEs. It processes spiking GeMMs as
 * ordinary dense GeMMs — every spike position, zero or one, costs a MAC
 * — and serves as the normalization baseline of Table IV and Fig. 8.
 */

#ifndef PROSPERITY_BASELINES_EYERISS_H
#define PROSPERITY_BASELINES_EYERISS_H

#include "arch/accelerator.h"

namespace prosperity {

/** Dense 168-PE row-stationary accelerator model. */
class EyerissAccelerator : public Accelerator
{
  public:
    std::string name() const override { return "Eyeriss"; }
    std::size_t numPes() const override;
    double areaMm2() const override;

    double staticPjPerCycle() const override;

    /** Dense processing ignores the spike pattern. */
    bool readsSpikes() const override { return false; }

  protected:
    double simulateSpikingGemm(const GemmShape& shape,
                               const SpikeOperand& spikes,
                               EnergyModel& energy) override;
};

} // namespace prosperity

#endif // PROSPERITY_BASELINES_EYERISS_H
