/**
 * @file
 * SATO baseline (Liu et al., DAC 2022): temporal-oriented dataflow that
 * bucket-sorts spike rows onto PE groups. It skips zeros (unstructured
 * bit sparsity) but suffers workload imbalance: a batch of rows
 * dispatched to the PEs finishes only when its most spike-dense row
 * does. The imbalance penalty is measured on the actual matrix.
 */

#ifndef PROSPERITY_BASELINES_SATO_H
#define PROSPERITY_BASELINES_SATO_H

#include "arch/accelerator.h"

namespace prosperity {

/** Bucket-dispatch bit-sparse accelerator model. */
class SatoAccelerator : public Accelerator
{
  public:
    std::string name() const override { return "SATO"; }
    std::size_t numPes() const override;
    double areaMm2() const override;

    double staticPjPerCycle() const override;

    /**
     * Imbalance-padded ops: batches of `batch_rows` rows each cost the
     * batch's max popcount on every PE. Exposed for tests.
     */
    static double paddedOps(const BitMatrix& spikes,
                            std::size_t batch_rows, std::size_t n);

  protected:
    double simulateSpikingGemm(const GemmShape& shape,
                               const SpikeOperand& spikes,
                               EnergyModel& energy) override;
};

} // namespace prosperity

#endif // PROSPERITY_BASELINES_SATO_H
