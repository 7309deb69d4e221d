/**
 * @file
 * Spiking-transformer acceleration — the scenario the paper's intro
 * motivates: existing SNN ASICs cannot run spiking transformers, GPUs
 * run them inefficiently, Prosperity runs them fast *and* efficiently.
 *
 * Runs SpikeBERT/SST-2 and Spikformer/CIFAR10 end to end on PTB (linear
 * layers + dense attention), the A100 model, and Prosperity, and prints
 * latency, energy and the Prosperity advantage.
 */

#include <iostream>
#include <vector>

#include "analysis/engine.h"
#include "sim/table.h"

using namespace prosperity;

int
main()
{
    const std::vector<Workload> workloads = {
        makeWorkload("SpikeBERT", "SST-2"),
        makeWorkload("Spikformer", "CIFAR10"),
    };

    const std::vector<AcceleratorSpec> specs = {
        AcceleratorSpec{"ptb"}, AcceleratorSpec{"a100"},
        AcceleratorSpec{"prosperity"}};
    std::vector<SimulationJob> jobs;
    for (const Workload& w : workloads)
        for (const AcceleratorSpec& spec : specs)
            jobs.push_back(SimulationJob{spec, w, {}});
    SimulationEngine engine;
    const std::vector<RunResult> results = engine.runBatch(jobs);

    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        Table table("Spiking transformer inference: " +
                    workloads[wi].name());
        table.setHeader({"accelerator", "latency (ms)", "energy (mJ)",
                         "avg power (W)", "Prosperity speedup",
                         "Prosperity energy adv."});
        // Jobs are workload-major, so this workload's row starts here
        // and Prosperity is its last column.
        const std::size_t row = wi * specs.size();
        const RunResult& pros = results[row + specs.size() - 1];
        for (std::size_t a = 0; a < specs.size(); ++a) {
            const RunResult& r = results[row + a];
            table.addRow(
                {r.accelerator, Table::num(r.seconds() * 1e3, 3),
                 Table::num(r.energy.totalPj() * 1e-9, 3),
                 Table::num(r.averagePowerW(), 2),
                 Table::ratio(r.seconds() / pros.seconds()),
                 Table::ratio(r.energy.totalPj() /
                              pros.energy.totalPj())});
        }
        table.print(std::cout);
        std::cout << '\n';
    }

    std::cout
        << "Notes:\n"
        << " * PTB handles the projection/FFN spiking GeMMs but must "
           "run attention densely — it was not designed for spiking "
           "transformers (Sec. II-B).\n"
        << " * The A100 stays latency-competitive on the large "
           "SpikeBERT (better tensor-core utilization, Sec. VII-C) "
           "but pays two orders of magnitude more energy.\n"
        << " * Prosperity's SFU handles softmax/layernorm while the "
           "PPU reuses prefix results inside every spiking GeMM.\n";
    return 0;
}
