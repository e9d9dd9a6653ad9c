// The complete system, end to end:
//   train (software) -> prune 1:4 -> deploy every layer on the hybrid
//   core -> run whole-image inference through the functional PE
//   simulators -> compare accuracies -> price the silicon with the
//   Table 2 library.
//
// This is the "downstream user" workflow: you bring a model and data,
// the library gives you a deployed accelerator with an energy account.
#include <cstdio>

#include "deploy/pim_executor.h"
#include "repnet/trainer.h"
#include "sim/energy_model.h"
#include "workloads/task_suite.h"

int main() {
  using namespace msh;

  Rng rng(123);

  // --- Train a sparse Rep-Net model in software. ---
  BackboneConfig cfg;
  cfg.stem_channels = 16;
  cfg.stage_channels = {16, 32};
  cfg.blocks_per_stage = {1, 1};
  cfg.stage_strides = {1, 2};
  RepNetConfig rep_cfg{.bottleneck_divisor = 8, .min_bottleneck = 8};

  SyntheticSpec spec = base_task_spec();
  spec.image_size = 12;
  spec.classes = 6;
  spec.train_per_class = 40;
  const TrainTestSplit data = make_synthetic_dataset(spec);

  RepNetModel model(cfg, rep_cfg, spec.classes, rng);
  BackboneClassifier head(model.backbone(), spec.classes, rng);
  std::printf("[1/4] pretraining backbone ...\n");
  pretrain_backbone(head, data,
                    TrainOptions{.epochs = 6, .batch = 24, .lr = 0.05f}, rng);

  std::printf("[2/4] continual learning with 1:4 sparse Rep path ...\n");
  ContinualOptions options;
  options.finetune = {.epochs = 5, .batch = 24, .lr = 0.04f};
  options.sparse = true;
  options.nm = kSparse1of4;
  const TaskOutcome outcome = learn_task(model, data, options, rng);

  // Prune + recalibrate the backbone too so it deploys sparse (the
  // paper's PTQ flow for the MRAM-resident weights).
  SparsityPlan backbone_plan;
  backbone_plan.prune(model.backbone_params(), kSparse1of4,
                      /*use_gradient_saliency=*/false);
  recalibrate_batchnorm(head, data.train, 10, 24, rng);
  const f64 sw_acc = evaluate_repnet(model, data.test);
  std::printf("      software: FP32-sparse %.2f%% (Rep path kept %.0f%%)\n",
              sw_acc * 100.0, outcome.rep_kept_fraction * 100.0);

  // --- Deploy everything on the hybrid core. ---
  std::printf("[3/4] deploying to the hybrid core ...\n");
  // The modeled backend: the energy bill below prices its PE events,
  // which the raw default does not count.
  PimExecutorOptions exec_options;
  exec_options.backend = KernelBackend::kModeled;
  PimRepNetExecutor executor(model, data.train, exec_options);
  std::printf("      %lld convs + classifier deployed; %lld with sparse "
              "1:4 packing\n",
              static_cast<long long>(executor.deployed_convs()),
              static_cast<long long>(executor.sparse_deployments()));

  // --- Hardware inference. ---
  std::printf("[4/4] running the test set through the PE simulators ...\n");
  const f64 hw_acc = executor.evaluate(data.test);
  std::printf("      hardware INT8 accuracy: %.2f%% (software %.2f%%)\n\n",
              hw_acc * 100.0, sw_acc * 100.0);

  // --- The bill, from the Table 2 device library. ---
  const PeEventCounts events = executor.core().pe_events();
  const EnergyReport energy = EnergyModel().price(events);
  const i64 images = data.test.size();
  std::printf("hardware account over %lld images:\n",
              static_cast<long long>(images));
  std::printf("  MRAM rows read: %lld | SRAM array cycles: %lld | "
              "MTJ bits programmed: %lld\n",
              static_cast<long long>(events.mram_row_reads),
              static_cast<long long>(events.sram_array_cycles),
              static_cast<long long>(events.mram_set_reset_bits));
  std::printf("  energy: %s MRAM + %s SRAM + %s buffers = %s total "
              "(%s per image)\n",
              to_string(energy.mram).c_str(), to_string(energy.sram).c_str(),
              to_string(energy.buffer).c_str(),
              to_string(energy.total()).c_str(),
              to_string(energy.total() / static_cast<f64>(images)).c_str());
  return 0;
}
