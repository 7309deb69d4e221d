/**
 * @file
 * LoAS (Yin et al., 2024): fully temporal-parallel dataflow for
 * dual-sparse SNNs — pruned (sparse) weights combined with spike bit
 * sparsity. The paper's Table V applies ProSparsity on top of
 * LoAS-pruned models to show the two are orthogonal: weight density is
 * untouched while activation density drops a further ~4x.
 *
 * This module implements the dual-side op counting (a scalar add fires
 * only where a spike meets a surviving weight) and carries the pruned
 * model catalog from the LoAS paper (weight densities 1.8-4.0%).
 */

#ifndef PROSPERITY_BASELINES_LOAS_H
#define PROSPERITY_BASELINES_LOAS_H

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arch/accelerator.h"
#include "bitmatrix/bit_matrix.h"
#include "sim/rng.h"

namespace prosperity {

/** One LoAS-pruned model from their paper. */
struct LoasModel
{
    std::string name;
    double weight_density;     ///< surviving weight fraction
    double activation_density; ///< LIF spike density of the pruned model
};

/** The three pruned models evaluated in Table V. */
std::vector<LoasModel> loasModelCatalog();

/** Dual-side sparsity math. */
class Loas
{
  public:
    /**
     * Generate a K x N binary weight mask at `weight_density`
     * (unstructured pruning, as LoAS trains).
     */
    static BitMatrix weightMask(std::size_t k, std::size_t n,
                                double weight_density, Rng& rng);

    /**
     * Scalar adds of a dual-sparse spiking GeMM: for each (row, col)
     * output, one add per position where the spike row and the weight
     * column both survive.
     */
    static double dualSideOps(const BitMatrix& spikes,
                              const BitMatrix& weight_mask);
};

/**
 * LoAS as an end-to-end accelerator model: a 128-PE fully
 * temporal-parallel array whose compute follows the dual-side op count
 * (spike meets surviving weight). Weight masks are drawn per GeMM
 * geometry from a seed derived only from (k, n, weight_density), so
 * results are reproducible regardless of layer order or threading.
 */
class LoasAccelerator : public Accelerator
{
  public:
    /** @param weight_density surviving-weight fraction of the pruned
     *         model (LoAS catalog: 1.8-4.0%). */
    explicit LoasAccelerator(double weight_density = 0.018);

    std::string name() const override { return "LoAS"; }
    std::size_t numPes() const override;
    double areaMm2() const override;
    double staticPjPerCycle() const override;

    double weightDensity() const { return weight_density_; }

  protected:
    double simulateSpikingGemm(const GemmShape& shape,
                               const SpikeOperand& spikes,
                               EnergyModel& energy) override;

  private:
    const BitMatrix& maskFor(std::size_t k, std::size_t n);

    double weight_density_;
    std::map<std::pair<std::size_t, std::size_t>, BitMatrix> masks_;
};

} // namespace prosperity

#endif // PROSPERITY_BASELINES_LOAS_H
