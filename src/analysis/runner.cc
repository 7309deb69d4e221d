#include "runner.h"

#include <cmath>

#include "gen/spike_generator.h"
#include "obs/trace.h"
#include "sim/logging.h"

namespace prosperity {

namespace {

ModelHints
hintsFor(const ModelSpec& model)
{
    ModelHints hints;
    hints.time_steps = model.time_steps;
    return hints;
}

} // namespace

LayerRequest
layerRequestFor(const LayerSpec& layer, const BitMatrix* spikes)
{
    LayerRequest request;
    if (layer.isSpikingGemm()) {
        // Without a matrix, only designs that read no spikes can run
        // it: Accelerator::runLayer panics for the others.
        request = spikes != nullptr
                      ? LayerRequest::spikingGemm(layer.gemm, *spikes)
                      : LayerRequest::spikingGemm(layer.gemm);
        // Output currents feed the spiking neuron array.
        request.lif_updates = static_cast<double>(layer.gemm.m) *
                              static_cast<double>(layer.gemm.n);
    } else if (layer.gemm.m > 0) {
        // Direct-coded (non-spiking) GeMM, e.g. the first conv.
        request = LayerRequest::denseGemm(layer.gemm);
    }
    request.sfu_ops = layer.sfu_ops;
    return request;
}

RunResult
runWorkload(Accelerator& accel, const Workload& workload,
            const RunOptions& options)
{
    const ModelSpec model = workload.buildModel();
    const SpikeGenerator gen(workload.profile, options.seed);

    RunResult result;
    result.accelerator = accel.name();
    result.workload = workload.name();
    result.tech = accel.tech();

    accel.beginModel(hintsFor(model));
    // Dense-execution designs never look at the matrix: skip its
    // generation. Matrices come from per-(seed, layer) streams, so
    // skipping one shifts no other draw.
    const bool reads_spikes = accel.readsSpikes();

    std::size_t layer_index = 0;
    for (const auto& layer : model.layers) {
        ++layer_index;
        BitMatrix spikes;
        const bool generate = reads_spikes && layer.isSpikingGemm();
        if (generate) {
            obs::ScopedSpan span("spikegen", layer.name);
            spikes = gen.generateLayer(layer, layer_index);
        }

        // One child span per layer; Accelerator::runLayer adds
        // per-stage grandchildren. Free when the thread is not being
        // traced.
        obs::ScopedSpan span("layer", layer.name);
        if (span.active())
            span.setDetail(accel.name());
        const LayerResult lr = accel.runLayer(
            layerRequestFor(layer, generate ? &spikes : nullptr));
        result.cycles += lr.cycles;
        result.dense_macs += lr.dense_macs;
        result.dram_bytes += lr.dram_bytes;
        result.energy.merge(lr.energy);
        if (options.keep_layer_records)
            result.layers.push_back(
                LayerRunRecord{layer.name, lr.cycles, layer.denseOps()});
    }
    return result;
}

double
geometricMean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        PROSPERITY_ASSERT(v > 0.0, "geometric mean needs positive values");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace prosperity
