/**
 * @file
 * Spiking neuron models.
 *
 * The functional inference path uses the leaky integrate-and-fire (LIF)
 * neuron (Sec. II-A): each time step integrates the input current into
 * the membrane potential, applies leak, and fires a spike when the
 * potential crosses the threshold. The FS ("few spikes") neuron of
 * Stellar (Stoeckl & Maass) is modeled for the Fig. 11 density
 * comparison: it re-codes an activation into at most `max_spikes`
 * spikes using binary-weighted temporal coding.
 */

#ifndef PROSPERITY_SNN_NEURON_H
#define PROSPERITY_SNN_NEURON_H

#include <cstdint>
#include <vector>

#include "bitmatrix/bit_matrix.h"
#include "bitmatrix/dense_matrix.h"

namespace prosperity {

/** LIF dynamics parameters. */
struct LifParams
{
    double leak = 0.5;        ///< membrane decay factor per step (1/tau)
    double threshold = 64.0;  ///< firing threshold (integer-current scale)
    bool soft_reset = true;   ///< subtract threshold instead of zeroing
};

/**
 * A bank of LIF neurons evaluated functionally over time steps.
 *
 * Currents arrive as an integer matrix of shape (T, N): row t holds the
 * accumulated input current of every neuron at time step t (the output
 * of one spiking GeMM). step()/run() produce the binary spike outputs.
 */
class LifArray
{
  public:
    LifArray(std::size_t num_neurons, LifParams params = {});

    std::size_t size() const { return potentials_.size(); }
    const LifParams& params() const { return params_; }

    /** Reset all membrane potentials to zero. */
    void reset();

    /**
     * Advance one time step with per-neuron currents; returns the spike
     * vector fired this step.
     */
    BitVector step(const std::int32_t* currents, std::size_t count);

    /**
     * Run all T time steps of `currents` (T x N) and return the (T x N)
     * spike matrix.
     */
    BitMatrix run(const OutputMatrix& currents);

    /** Current membrane potential of neuron `i` (for tests). */
    double potential(std::size_t i) const { return potentials_[i]; }

  private:
    LifParams params_;
    std::vector<double> potentials_;
};

/**
 * FS (few-spikes) neuron re-coder used by Stellar's algorithm-hardware
 * co-design. Given a non-negative activation value, the neuron emits at
 * most `max_spikes` spikes over `time_steps` steps, choosing the
 * binary-weighted steps that best approximate the activation (greedy
 * residual coding, as in the FS-conversion literature). This captures
 * the mechanism that makes Stellar's activations sparser than LIF's,
 * without re-training any model.
 */
class FsNeuron
{
  public:
    FsNeuron(std::size_t time_steps, std::size_t max_spikes = 2,
             double value_range = 1.0);

    /**
     * Encode one activation into a spike train of `time_steps` bits.
     * Step t carries weight value_range / 2^(t+1).
     */
    BitVector encode(double activation) const;

    /** Decoded value of a spike train (for error tests). */
    double decode(const BitVector& train) const;

    std::size_t timeSteps() const { return time_steps_; }

  private:
    std::size_t time_steps_;
    std::size_t max_spikes_;
    double value_range_;
};

} // namespace prosperity

#endif // PROSPERITY_SNN_NEURON_H
