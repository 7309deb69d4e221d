/**
 * @file
 * Prosperity — the full accelerator model behind the paper's headline
 * numbers. Wraps the PPU layer model in the common Accelerator
 * interface, wires in the area model, and exposes the ablation knobs
 * (sparsity mode, dispatch mode) used by Fig. 9.
 */

#ifndef PROSPERITY_CORE_PROSPERITY_ACCELERATOR_H
#define PROSPERITY_CORE_PROSPERITY_ACCELERATOR_H

#include <string>

#include "arch/accelerator.h"
#include "arch/area_model.h"
#include "core/ppu.h"

namespace prosperity {

/** The Prosperity accelerator (Table III configuration by default). */
class ProsperityAccelerator : public Accelerator
{
  public:
    explicit ProsperityAccelerator(ProsperityConfig config = {});
    ProsperityAccelerator(ProsperityConfig config, Ppu::Options options);

    std::string name() const override;
    std::size_t numPes() const override { return config_.num_pes; }
    double areaMm2() const override;
    Tech tech() const override { return config_.tech; }

    const ProsperityConfig& config() const { return config_; }
    const Ppu::Options& options() const { return ppu_.options(); }

  protected:
    double simulateSpikingGemm(const GemmShape& shape,
                               const SpikeOperand& spikes,
                               EnergyModel& energy) override;

  private:

    ProsperityConfig config_;
    Ppu ppu_;
};

} // namespace prosperity

#endif // PROSPERITY_CORE_PROSPERITY_ACCELERATOR_H
