/**
 * @file
 * Bringing your own SNN to Prosperity: the workload layer is an open
 * registry, so a new model and even a new dataset are *registrations*,
 * not library edits.
 *
 *  1. Describe the model declaratively (ModelDesc) — the same format
 *     as the checked-in models/<name>.json files; attach the
 *     activation profile you calibrated from your own traces.
 *  2. Register the dataset geometry (DatasetRegistry) and the model
 *     (ModelRegistry::addDesc).
 *  3. makeWorkload("KWSNet", "SpeechCommands") now works everywhere a
 *     built-in pair does: SimulationEngine, campaigns, the CLI.
 *
 * The same model could instead live in a JSON file and be referenced
 * from a campaign spec as "file:kwsnet.json" — see
 * docs/WORKLOADS.md and models/example_custom.json.
 */

#include <iostream>

#include "analysis/engine.h"
#include "sim/table.h"
#include "snn/model_desc.h"
#include "snn/model_registry.h"

using namespace prosperity;

namespace {

/** A compact keyword-spotting CNN on 40x101 mel spectrograms,
 *  described as data. */
ModelDesc
kwsNetDesc()
{
    ModelDesc desc;
    desc.name = "KWSNet";
    desc.description = "keyword-spotting CNN on mel spectrograms";

    // The profile you would calibrate from your own recorded traces.
    ActivationProfile profile;
    profile.bit_density = 0.18;
    profile.cluster_fraction = 0.9;
    profile.bank_size = 10;
    profile.subset_drop_prob = 0.3;
    profile.temporal_repeat = 0.45;
    desc.profile = profile;

    ConvDesc conv1;
    conv1.name = "conv1";
    conv1.out_channels = 32;
    conv1.padding = 1;
    conv1.spiking = false; // direct-coded spectrogram input
    desc.layers.push_back(LayerDesc{conv1, std::nullopt});

    ConvDesc conv2;
    conv2.name = "conv2";
    conv2.out_channels = 64;
    conv2.stride = 2;
    conv2.padding = 1;
    desc.layers.push_back(LayerDesc{conv2, std::nullopt});

    ConvDesc conv3 = conv2;
    conv3.name = "conv3";
    desc.layers.push_back(LayerDesc{conv3, std::nullopt});

    LinearDesc fc;
    fc.name = "fc";
    fc.out_features = SymbolicSize(std::string("num_classes"));
    desc.layers.push_back(LayerDesc{fc, std::nullopt});
    return desc;
}

} // namespace

int
main()
{
    // Open the workload universe: one dataset + one model registration.
    DatasetRegistry::instance().add(DatasetRegistry::DatasetInfo{
        "SpeechCommands",
        "keyword-spotting audio, 40x101 mel spectrograms, 12 classes",
        {/*T=*/4, /*channels=*/1, /*height=*/40, /*width=*/101,
         /*seq_len=*/64, /*num_classes=*/12}});
    ModelRegistry::instance().addDesc(kwsNetDesc());

    // From here on the custom pair behaves like any built-in workload.
    const Workload workload = makeWorkload("KWSNet", "SpeechCommands");
    const ModelSpec model = workload.buildModel();
    std::cout << "Custom workload " << workload.name() << ": "
              << model.layers.size() << " layers, "
              << model.totalDenseOps() / 1e6 << " M dense MACs, "
              << model.numSpikingGemms() << " spiking GeMMs\n\n";

    SimulationEngine engine;
    std::vector<SimulationJob> jobs;
    for (const char* name : {"eyeriss", "ptb", "prosperity"})
        jobs.push_back(SimulationJob{AcceleratorSpec(name), workload, {}});
    const std::vector<RunResult> results = engine.runBatch(jobs);

    Table table("KWSNet/SpeechCommands end to end");
    table.setHeader({"accelerator", "latency (ms)", "GOP/s", "GOP/J",
                     "energy (uJ)"});
    for (const RunResult& r : results)
        table.addRow({r.accelerator, Table::num(r.seconds() * 1e3, 3),
                      Table::num(r.gops()), Table::num(r.gopj()),
                      Table::num(r.energy.totalPj() * 1e-6, 1)});
    table.print(std::cout);

    std::cout << "\nProsperity speedup on your model: "
              << Table::ratio(results[0].seconds() / results[2].seconds())
              << " vs dense, "
              << Table::ratio(results[1].seconds() / results[2].seconds())
              << " vs PTB\n";
    return 0;
}
