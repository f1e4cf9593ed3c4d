// Checkpoint/restore subsystem: serialization round trips (save ->
// load must be bit-identical, including optimizer slots and the RNG
// stream), corruption rejection (any truncation or bit flip raises
// SerializeError instead of restoring garbage), and the CheckpointStore
// atomicity/retention protocol (a torn write never shadows the last
// good checkpoint).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/temp_dir.h"
#include "core/checkpoint.h"
#include "dnn/checkpoint.h"
#include "dnn/model.h"
#include "dnn/optimizer.h"
#include "sched/checkpoint.h"
#include "sched/elastic_job.h"
#include "sched/model_bank.h"
#include "sim/cluster.h"
#include "sim/cluster_factory.h"
#include "workloads/registry.h"

namespace {

using namespace cannikin;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------- framing

TEST(Crc32, MatchesKnownVector) {
  // The standard IEEE 802.3 check value for "123456789".
  const std::string data = "123456789";
  EXPECT_EQ(common::crc32(data.data(), data.size()), 0xCBF43926u);
}

TEST(Framing, RoundTripsBody) {
  const std::string body = "hello checkpoint \x01\x02\x00 world";
  const std::string file = common::frame_checkpoint(body, 7);
  EXPECT_EQ(common::unframe_checkpoint(file, 7), body);
}

TEST(Framing, RejectsWrongVersion) {
  const std::string file = common::frame_checkpoint("body", 1);
  EXPECT_THROW(common::unframe_checkpoint(file, 2), common::SerializeError);
}

TEST(Framing, RejectsEveryTruncationPrefix) {
  const std::string file = common::frame_checkpoint("some payload bytes", 1);
  for (std::size_t len = 0; len < file.size(); ++len) {
    EXPECT_THROW(common::unframe_checkpoint(file.substr(0, len), 1),
                 common::SerializeError)
        << "prefix of length " << len << " must be rejected";
  }
}

TEST(Framing, RejectsEverySingleBitFlip) {
  const std::string file = common::frame_checkpoint("abcdefgh", 3);
  for (std::size_t i = 0; i < file.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = file;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      EXPECT_THROW(common::unframe_checkpoint(corrupt, 3),
                   common::SerializeError)
          << "flip of bit " << bit << " at byte " << i << " must be rejected";
    }
  }
}

// ----------------------------------------------- trainer round trips

TEST(TrainerCheckpoint, TensorRoundTripIsBitIdentical) {
  dnn::Tensor t({2, 3, 4});
  Rng rng(11);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = rng.normal();

  common::BinaryWriter out;
  dnn::save_tensor(out, t);
  common::BinaryReader in(out.buffer());
  const dnn::Tensor back = dnn::load_tensor(in);

  EXPECT_TRUE(std::equal(back.shape().begin(), back.shape().end(),
                         t.shape().begin(), t.shape().end()));
  EXPECT_EQ(back.storage(), t.storage());  // exact, not approximate
}

TEST(TrainerCheckpoint, OptimizerSlotsRoundTrip) {
  dnn::Adam adam;
  std::vector<double> params(16, 0.5);
  std::vector<double> grads(16, 0.1);
  for (int i = 0; i < 3; ++i) adam.step(params, grads, 0.01);

  common::BinaryWriter out;
  dnn::save_optimizer(out, adam);

  dnn::Adam restored;
  common::BinaryReader in(out.buffer());
  dnn::load_optimizer(in, restored);

  // Same slots + step count => the next step is bit-identical.
  std::vector<double> a = params, b = params;
  adam.step(a, grads, 0.01);
  restored.step(b, grads, 0.01);
  EXPECT_EQ(a, b);
}

TEST(TrainerCheckpoint, OptimizerLoadRejectsWrongSlotCount) {
  dnn::Sgd sgd;
  std::vector<double> params(4, 1.0), grads(4, 0.1);
  sgd.step(params, grads, 0.1);
  common::BinaryWriter out;
  dnn::save_optimizer(out, sgd);  // 1 slot

  dnn::Adam adam;  // expects 2 slots
  common::BinaryReader in(out.buffer());
  EXPECT_THROW(dnn::load_optimizer(in, adam), common::SerializeError);
}

TEST(TrainerCheckpoint, RngStateContinuesExactStream) {
  Rng rng(123);
  for (int i = 0; i < 100; ++i) rng.uniform();
  const std::string state = rng.state();

  Rng restored(999);  // different seed: state must fully overwrite it
  restored.set_state(state);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_int(0, 1 << 30), restored.uniform_int(0, 1 << 30));
  }
}

TEST(TrainerCheckpoint, TrainerStateRoundTripsThroughBytes) {
  dnn::TrainerState state;
  state.params = {1.0, -2.5, 3.25};
  state.optimizer.slots = {{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}};
  state.optimizer.step_count = 17;
  Rng rng(5);
  rng.normal();
  state.rng_state = rng.state();
  state.cursor = {/*dataset_size=*/50000, /*shuffle_seed=*/99,
                  /*local_batches=*/{32, 64, 128}, /*next_batch=*/2};

  const std::string bytes = dnn::serialize_trainer_state(state);
  const dnn::TrainerState back = dnn::deserialize_trainer_state(bytes);

  EXPECT_EQ(back.params, state.params);
  EXPECT_EQ(back.optimizer.slots, state.optimizer.slots);
  EXPECT_EQ(back.optimizer.step_count, state.optimizer.step_count);
  EXPECT_EQ(back.rng_state, state.rng_state);
  EXPECT_EQ(back.cursor, state.cursor);

  // Truncation anywhere must be rejected, never partially applied.
  for (std::size_t len : {std::size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(dnn::deserialize_trainer_state(bytes.substr(0, len)),
                 common::SerializeError);
  }
}

// The tentpole property: training interrupted by a checkpoint/restore
// cycle produces bit-identical parameters to uninterrupted training.
TEST(TrainerCheckpoint, ResumedTrainingIsBitIdenticalToUninterrupted) {
  const auto make_model = [] {
    dnn::Model model = dnn::make_mlp(8, 16, 1, 4);
    Rng init(7);
    model.init(init);
    return model;
  };
  const auto train_steps = [](dnn::Model& model, dnn::Optimizer& opt, Rng& rng,
                              int steps) {
    for (int step = 0; step < steps; ++step) {
      dnn::Tensor x({4, 8});
      for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
      model.zero_grads();
      dnn::Tensor y = model.forward(x);
      for (std::size_t i = 0; i < y.size(); ++i) y[i] = y[i] / y.size();
      model.backward(y);
      auto params = model.flat_params();
      const auto grads = model.flat_grads();
      opt.step(params, grads, 0.05);
      model.set_flat_params(params);
    }
  };

  // Reference: 10 uninterrupted steps.
  dnn::Model ref = make_model();
  dnn::Adam ref_opt;
  Rng ref_rng(42);
  train_steps(ref, ref_opt, ref_rng, 10);

  // Interrupted: 6 steps, checkpoint, restore into fresh objects, 4 more.
  dnn::Model a = make_model();
  dnn::Adam a_opt;
  Rng a_rng(42);
  train_steps(a, a_opt, a_rng, 6);

  dnn::TrainerState state;
  state.params = a.flat_params();
  state.optimizer = a_opt.state();
  state.rng_state = a_rng.state();
  const std::string bytes = dnn::serialize_trainer_state(state);

  dnn::Model b = make_model();
  dnn::Adam b_opt;
  Rng b_rng(1);  // wrong seed on purpose; restore must fix it
  const dnn::TrainerState restored = dnn::deserialize_trainer_state(bytes);
  b.set_flat_params(restored.params);
  b_opt.set_state(restored.optimizer);
  b_rng.set_state(restored.rng_state);
  train_steps(b, b_opt, b_rng, 4);

  EXPECT_EQ(b.flat_params(), ref.flat_params());  // exact equality
}

// -------------------------------------------- controller-state round trip

TEST(ControllerCheckpoint, StateRoundTrips) {
  core::ControllerState state;
  state.gns = 512.25;
  state.node_models = std::vector<core::NodeModel>{
      {0.01, 0.2, 0.005, 0.1, 256.0}, {0.02, 0.3, 0.004, 0.2, 128.0}};
  state.comm_times = core::CommTimes{0.5, 0.04, 0.02};

  common::BinaryWriter out;
  core::save_controller_state(out, state);
  common::BinaryReader in(out.buffer());
  const core::ControllerState back = core::load_controller_state(in);

  EXPECT_EQ(back.gns, state.gns);
  ASSERT_TRUE(back.node_models.has_value());
  ASSERT_EQ(back.node_models->size(), 2u);
  EXPECT_EQ((*back.node_models)[0].q, 0.01);
  EXPECT_EQ((*back.node_models)[1].max_batch, 128.0);
  ASSERT_TRUE(back.comm_times.has_value());
  EXPECT_EQ(back.comm_times->gamma, 0.5);
  EXPECT_EQ(back.comm_times->t_last, 0.02);
}

// ------------------------------------------------ sched::Checkpoint

sched::Checkpoint sample_checkpoint() {
  sched::Checkpoint ckpt;
  ckpt.epochs = 12;
  ckpt.progress = 0.375;
  ckpt.allocation = {0, 4, 8, 9};
  ckpt.network_scale = 0.75;
  ckpt.node_contention = {1.0, 1.0, 0.5, 1.0};
  ckpt.crash_recoveries = 1;
  ckpt.warm_reallocations = 2;
  ckpt.node_rejoins = 1;
  ckpt.recovery_overhead_seconds = 2.25;
  sched::ModelBank bank;
  bank.store_node("v100|xeon", {0.01, 0.2, 0.005, 0.1, 256.0});
  bank.store_comm(4, {0.5, 0.04, 0.02});
  ckpt.bank_text = bank.serialize();
  ckpt.controller.gns = 700.0;
  ckpt.payload_kind = "trainer-state";
  ckpt.payload = std::string("\x00\x01\x02 raw", 8);
  return ckpt;
}

TEST(SchedCheckpoint, RoundTripsAllFields) {
  const sched::Checkpoint ckpt = sample_checkpoint();
  const sched::Checkpoint back = sched::Checkpoint::deserialize(ckpt.serialize());

  EXPECT_EQ(back.epochs, ckpt.epochs);
  EXPECT_EQ(back.progress, ckpt.progress);
  EXPECT_EQ(back.allocation, ckpt.allocation);
  EXPECT_EQ(back.network_scale, ckpt.network_scale);
  EXPECT_EQ(back.node_contention, ckpt.node_contention);
  EXPECT_EQ(back.crash_recoveries, ckpt.crash_recoveries);
  EXPECT_EQ(back.warm_reallocations, ckpt.warm_reallocations);
  EXPECT_EQ(back.node_rejoins, ckpt.node_rejoins);
  EXPECT_EQ(back.recovery_overhead_seconds, ckpt.recovery_overhead_seconds);
  EXPECT_EQ(back.bank_text, ckpt.bank_text);
  EXPECT_EQ(back.controller.gns, ckpt.controller.gns);
  EXPECT_EQ(back.payload_kind, ckpt.payload_kind);
  EXPECT_EQ(back.payload, ckpt.payload);

  // The embedded bank text still parses back into the same entries.
  const sched::ModelBank bank = sched::ModelBank::deserialize(back.bank_text);
  EXPECT_EQ(bank.num_node_entries(), 1u);
  EXPECT_EQ(bank.num_comm_entries(), 1u);
}

// ------------------------------------------------- CheckpointStore

TEST(CheckpointStore, SaveLoadLatestAndRetention) {
  TempDir dir("cannikin-store-test");
  sched::CheckpointStore store(dir.str(), /*keep_last=*/2);

  sched::Checkpoint ckpt = sample_checkpoint();
  std::uint64_t bytes = 0;
  for (int e = 1; e <= 5; ++e) {
    ckpt.epochs = e;
    store.save(ckpt);
    bytes += ckpt.serialize().size();
  }
  // Every save counts, pruned ones included.
  EXPECT_EQ(store.bytes_written(), bytes);
  // Retention: only the last 2 survive.
  EXPECT_EQ(store.list().size(), 2u);
  const auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epochs, 5);
}

TEST(CheckpointStore, SequenceOrderWinsOverEpochAfterRollback) {
  TempDir dir("cannikin-store-rollback");
  sched::CheckpointStore store(dir.str(), /*keep_last=*/3);
  sched::Checkpoint ckpt = sample_checkpoint();
  ckpt.epochs = 10;
  store.save(ckpt);
  // After a restore the job rolls back and re-checkpoints an *earlier*
  // epoch; that file is newer and must win.
  ckpt.epochs = 7;
  store.save(ckpt);
  const auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epochs, 7);
}

TEST(CheckpointStore, StaleTmpFileIsIgnored) {
  TempDir dir("cannikin-store-tmp");
  sched::CheckpointStore store(dir.str(), /*keep_last=*/3);
  sched::Checkpoint ckpt = sample_checkpoint();
  store.save(ckpt);
  // A crash mid-save leaves a half-written .tmp behind; it must never
  // be listed or loaded.
  write_file(dir.str() + "/ckpt-99999999-e000099.bin.tmp", "garbage");
  EXPECT_EQ(store.list().size(), 1u);
  const auto latest = store.load_latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epochs, ckpt.epochs);
}

TEST(CheckpointStore, TruncatedNewestFallsBackToOlderGoodCheckpoint) {
  TempDir dir("cannikin-store-corrupt");
  sched::CheckpointStore store(dir.str(), /*keep_last=*/3);
  sched::Checkpoint ckpt = sample_checkpoint();
  ckpt.epochs = 3;
  store.save(ckpt);
  ckpt.epochs = 4;
  const std::string newest = store.save(ckpt);

  // Truncate the newest file in place (simulates a torn disk write that
  // somehow landed under the final name).
  const std::string bytes = read_file(newest);
  write_file(newest, bytes.substr(0, bytes.size() / 2));

  std::vector<std::string> skipped;
  const auto latest = store.load_latest(&skipped);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epochs, 3);
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_EQ(skipped[0], newest);
}

TEST(CheckpointStore, NoUsableCheckpointReturnsNullopt) {
  TempDir dir("cannikin-store-empty");
  sched::CheckpointStore store(dir.str(), /*keep_last=*/3);
  EXPECT_FALSE(store.load_latest().has_value());
  write_file(dir.str() + "/ckpt-00000001-e000001.bin", "not a checkpoint");
  std::vector<std::string> skipped;
  EXPECT_FALSE(store.load_latest(&skipped).has_value());
  EXPECT_EQ(skipped.size(), 1u);
}

// ------------------------------------------- elastic-job round trip

TEST(JobCheckpoint, RestoredJobContinuesFromCheckpointedState) {
  const auto& workload = workloads::by_name("cifar10");
  sched::ElasticCannikinJob job(&workload, sim::cluster_b(),
                                sim::NoiseConfig{}, 3);
  job.set_allocation({0, 4, 8, 9});
  for (int i = 0; i < 6; ++i) job.run_epoch();

  const sched::Checkpoint ckpt = job.make_checkpoint();
  EXPECT_EQ(ckpt.epochs, 6);
  EXPECT_GT(ckpt.progress, 0.0);
  EXPECT_EQ(ckpt.allocation, (std::vector<int>{0, 4, 8, 9}));

  // Byte round trip, then restore into a brand-new process's job.
  const sched::Checkpoint back = sched::Checkpoint::deserialize(ckpt.serialize());
  sched::ElasticCannikinJob restored(&workload, sim::cluster_b(),
                                     sim::NoiseConfig{}, 3);
  restored.restore_from_checkpoint(back);

  EXPECT_EQ(restored.epochs_run(), 6);
  EXPECT_EQ(restored.progress_fraction(), job.progress_fraction());
  EXPECT_EQ(restored.allocation(), job.allocation());
  // Warm restore: the bank + controller state cover the allocation, so
  // planning resumes without bootstrap epochs.
  EXPECT_GT(restored.warm_reallocations(), 0);
  EXPECT_GT(restored.run_epoch(), 0.0);
  // One more epoch advances past the checkpointed job's progress.
  EXPECT_GT(restored.progress_fraction(), job.progress_fraction());
}

TEST(JobCheckpoint, RestoreExcludesDeadNodes) {
  const auto& workload = workloads::by_name("cifar10");
  sched::ElasticCannikinJob job(&workload, sim::cluster_b(),
                                sim::NoiseConfig{}, 3);
  job.set_allocation({0, 4, 8, 9});
  for (int i = 0; i < 4; ++i) job.run_epoch();
  const sched::Checkpoint ckpt = job.make_checkpoint();

  sched::ElasticCannikinJob restored(&workload, sim::cluster_b(),
                                     sim::NoiseConfig{}, 3);
  restored.restore_from_checkpoint(ckpt, /*exclude_nodes=*/{4});
  EXPECT_EQ(restored.allocation(), (std::vector<int>{0, 8, 9}));
  EXPECT_GT(restored.run_epoch(), 0.0);

  sched::ElasticCannikinJob dead(&workload, sim::cluster_b(),
                                 sim::NoiseConfig{}, 3);
  EXPECT_THROW(dead.restore_from_checkpoint(ckpt, {0, 4, 8, 9}),
               std::runtime_error);
}

TEST(JobCheckpoint, RestoreIntoAllocatedJobThrows) {
  const auto& workload = workloads::by_name("cifar10");
  sched::ElasticCannikinJob job(&workload, sim::cluster_b(),
                                sim::NoiseConfig{}, 3);
  job.set_allocation({0, 4});
  job.run_epoch();
  const sched::Checkpoint ckpt = job.make_checkpoint();
  EXPECT_THROW(job.restore_from_checkpoint(ckpt), std::logic_error);
}

}  // namespace
