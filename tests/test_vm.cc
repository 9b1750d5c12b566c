// VM tests: individual instructions, control flow, closures, ADTs,
// per-executable dispatch ownership, serialization round-trips, the
// profiler, and the recycle table.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <set>
#include <sstream>
#include <thread>

#include "src/codegen/dispatch.h"
#include "src/core/compiler.h"
#include "src/ir/module.h"
#include "src/models/bert.h"
#include "src/models/lstm.h"
#include "src/models/tree_lstm.h"
#include "src/models/workloads.h"
#include "src/op/registry.h"
#include "src/support/rng.h"
#include "src/vm/compiler.h"
#include "src/vm/vm.h"

namespace nimble {
namespace {

using namespace ir;  // NOLINT
using runtime::AsTensor;
using runtime::MakeTensor;
using runtime::NDArray;

/// Compiles a single-function module through the full pipeline.
std::shared_ptr<vm::Executable> CompileMain(Function fn,
                                            Module* mod_out = nullptr) {
  Module mod;
  mod.Add("main", std::move(fn));
  auto result = core::Compile(mod);
  if (mod_out != nullptr) *mod_out = mod;
  return result.executable;
}

float RunScalar(vm::VirtualMachine& machine,
                std::vector<runtime::ObjectRef> args) {
  auto out = machine.Invoke("main", std::move(args));
  return AsTensor(out).data<float>()[0];
}

TEST(VM, ExecutesStraightLineArithmetic) {
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  auto exec = CompileMain(MakeFunction(
      {x}, op::Call2("multiply", op::Call2("add", x, FloatConst(1.0f)),
                     FloatConst(3.0f))));
  vm::VirtualMachine machine(exec);
  EXPECT_FLOAT_EQ(RunScalar(machine, {MakeTensor(NDArray::Scalar<float>(2.0f))}),
                  9.0f);
}

TEST(VM, IfTakesBothBranches) {
  Var c = MakeVar("c", ScalarType(DataType::Bool()));
  Var a = MakeVar("a", ScalarType(DataType::Float32()));
  auto exec = CompileMain(MakeFunction(
      {c, a}, MakeIf(c, op::Call2("add", a, FloatConst(10.0f)),
                     op::Call2("subtract", a, FloatConst(10.0f)))));
  vm::VirtualMachine machine(exec);
  auto mk_bool = [](bool v) {
    NDArray b = NDArray::Empty({}, DataType::Bool());
    *static_cast<uint8_t*>(b.raw_data()) = v;
    return MakeTensor(b);
  };
  EXPECT_FLOAT_EQ(
      RunScalar(machine, {mk_bool(true), MakeTensor(NDArray::Scalar<float>(1.0f))}),
      11.0f);
  EXPECT_FLOAT_EQ(
      RunScalar(machine, {mk_bool(false), MakeTensor(NDArray::Scalar<float>(1.0f))}),
      -9.0f);
}

TEST(VM, RecursiveLoopAccumulates) {
  // sum(i..n) via tail recursion: tests Invoke, If, integer kernels.
  Module mod;
  Var i = MakeVar("i", ScalarType(DataType::Int64()));
  Var n = MakeVar("n", ScalarType(DataType::Int64()));
  Var acc = MakeVar("acc", ScalarType(DataType::Int64()));
  GlobalVar loop = MakeGlobalVar("loop");
  Expr body = MakeIf(op::Call2("less", i, n),
                     MakeCall(loop, {op::Call2("add", i, IntConst(1)), n,
                                     op::Call2("add", acc, i)}),
                     acc);
  mod.Add("loop",
          MakeFunction({i, n, acc}, body, ScalarType(DataType::Int64())));
  Var mn = MakeVar("n", ScalarType(DataType::Int64()));
  mod.Add("main", MakeFunction({mn}, MakeCall(loop, {IntConst(0), mn,
                                                     IntConst(0)})));
  auto exec = core::Compile(mod).executable;
  vm::VirtualMachine machine(exec);
  auto out = machine.Invoke("main", {MakeTensor(NDArray::Scalar<int64_t>(10))});
  EXPECT_EQ(AsTensor(out).data<int64_t>()[0], 45);
}

TEST(VM, TuplesAndProjections) {
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  Expr pair = MakeTuple({op::Call2("add", x, FloatConst(1.0f)),
                         op::Call2("add", x, FloatConst(2.0f))});
  Var t = MakeVar("t");
  auto exec = CompileMain(MakeFunction(
      {x}, MakeLet(t, pair,
                   op::Call2("multiply", MakeTupleGetItem(t, 0),
                             MakeTupleGetItem(t, 1)))));
  vm::VirtualMachine machine(exec);
  EXPECT_FLOAT_EQ(RunScalar(machine, {MakeTensor(NDArray::Scalar<float>(1.0f))}),
                  6.0f);
}

TEST(VM, MatchDispatchesOnConstructor) {
  Module mod;
  const TypeData& data = mod.DefineADT(
      "Shape2", {{"Circle", {ScalarType(DataType::Float32())}}, {"Square", {ScalarType(DataType::Float32())}}});
  Var s = MakeVar("s", ADTType("Shape2"));
  Var r = MakeVar("r"), w = MakeVar("w");
  Expr m = MakeMatch(
      s, {MatchClause{data.constructors[0], {r},
                      op::Call2("multiply", r, FloatConst(3.0f))},
          MatchClause{data.constructors[1], {w},
                      op::Call2("multiply", w, w)}});
  mod.Add("main", MakeFunction({s}, m));
  auto exec = core::Compile(mod).executable;
  vm::VirtualMachine machine(exec);
  auto circle = runtime::MakeADT(0, {MakeTensor(NDArray::Scalar<float>(2.0f))});
  auto square = runtime::MakeADT(1, {MakeTensor(NDArray::Scalar<float>(4.0f))});
  EXPECT_FLOAT_EQ(RunScalar(machine, {circle}), 6.0f);
  EXPECT_FLOAT_EQ(RunScalar(machine, {square}), 16.0f);
}

TEST(VM, ClosuresCaptureEnvironment) {
  // main(x) = (fn(y) -> y + x)(10)
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  Var y = MakeVar("y", ScalarType(DataType::Float32()));
  Expr lambda = MakeFunction({y}, op::Call2("add", y, x));
  Var f = MakeVar("f");
  auto exec = CompileMain(MakeFunction(
      {x}, MakeLet(f, lambda, MakeCall(f, {FloatConst(10.0f)}))));
  vm::VirtualMachine machine(exec);
  EXPECT_FLOAT_EQ(RunScalar(machine, {MakeTensor(NDArray::Scalar<float>(5.0f))}),
                  15.0f);
}

TEST(VM, DynamicOutputOpAllocatesAtRuntime) {
  // arange(0, n, 1): output size is data-dependent.
  Var n = MakeVar("n", ScalarType(DataType::Int64()));
  auto exec = CompileMain(
      MakeFunction({n}, op::Call3("arange", IntConst(0), n, IntConst(1))));
  vm::VirtualMachine machine(exec);
  for (int64_t len : {1, 4, 9}) {
    auto out = machine.Invoke("main", {MakeTensor(NDArray::Scalar<int64_t>(len))});
    const NDArray& arr = AsTensor(out);
    ASSERT_EQ(arr.num_elements(), len);
    EXPECT_EQ(arr.data<int64_t>()[len - 1], len - 1);
  }
}

TEST(VM, UpperBoundOpWithPreciseSlice) {
  // nms + slice_rows: upper-bound allocation, then slice to the true size.
  Var boxes = MakeVar("b", TensorType({3, 5}));
  Var nms = MakeVar("nms");
  Expr call = op::Call1("nn.nms", boxes, Attrs().Set("iou_threshold", 0.5));
  Expr body = MakeLet(
      nms, call,
      op::Call2("slice_rows", MakeTupleGetItem(nms, 0), MakeTupleGetItem(nms, 1)));
  auto exec = CompileMain(MakeFunction({boxes}, body));
  vm::VirtualMachine machine(exec);
  NDArray input = NDArray::FromVector<float>(
      {0.9f, 0, 0, 10, 10, 0.8f, 1, 1, 11, 11, 0.7f, 50, 50, 60, 60}, {3, 5});
  auto out = machine.Invoke("main", {MakeTensor(input)});
  EXPECT_EQ(AsTensor(out).shape(), (runtime::ShapeVec{2, 5}))
      << "output must be sliced to the exact NMS survivor count";
}

TEST(VM, WrongArityRejected) {
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  auto exec = CompileMain(MakeFunction({x}, x));
  vm::VirtualMachine machine(exec);
  EXPECT_THROW(machine.Invoke("main", {}), Error);
  EXPECT_THROW(machine.Invoke("nope", {}), Error);
}

TEST(VM, ProfilerSplitsKernelTime) {
  Var x = MakeVar("x", TensorType({64, 64}));
  Var w = MakeVar("w", TensorType({64, 64}));
  auto exec = CompileMain(MakeFunction({x, w}, op::Call2("nn.dense", x, w)));
  vm::VirtualMachine machine(exec);
  machine.EnableProfiling(true);
  support::Rng rng(1);
  NDArray xv = NDArray::Empty({64, 64}, DataType::Float32());
  NDArray wv = NDArray::Empty({64, 64}, DataType::Float32());
  xv.FillUniform(rng);
  wv.FillUniform(rng);
  machine.Invoke("main", {MakeTensor(xv), MakeTensor(wv)});
  const auto& prof = machine.profile();
  EXPECT_GT(prof.instructions, 0);
  EXPECT_GT(prof.kernel_nanos, 0);
  EXPECT_GT(prof.total_nanos, prof.kernel_nanos);
  EXPECT_GT(prof.per_opcode[static_cast<size_t>(vm::Opcode::kInvokePacked)], 0);
}

// ---- per-executable dispatch ownership ------------------------------------------

/// Compiles x[3,4] · w[5,4]^T with the given number of dispatch variants.
std::shared_ptr<vm::Executable> CompileDense(int variants) {
  Var x = MakeVar("x", TensorType({3, 4}));
  Var w = MakeVar("w", TensorType({5, 4}));
  Module mod;
  mod.Add("main", MakeFunction({x, w}, op::Call2("nn.dense", x, w)));
  core::CompileOptions opts;
  opts.dense_dispatch_variants = variants;
  return core::Compile(mod, opts).executable;
}

TEST(VM, DenseDispatchReadsTheExecutablesTable) {
  auto exec_full = CompileDense(8);
  auto exec_none = CompileDense(1);
  EXPECT_EQ(exec_full->dispatch_table.num_variants(), 8);
  EXPECT_EQ(exec_none->dispatch_table.num_variants(), 1)
      << "compiling one executable must not reconfigure another";

  support::Rng rng(3);
  NDArray x = NDArray::Empty({3, 4}, runtime::DataType::Float32());
  NDArray w = NDArray::Empty({5, 4}, runtime::DataType::Float32());
  for (int64_t i = 0; i < x.num_elements(); ++i)
    x.data<float>()[i] = rng.Uniform(-1.0f, 1.0f);
  for (int64_t i = 0; i < w.num_elements(); ++i)
    w.data<float>()[i] = rng.Uniform(-1.0f, 1.0f);

  vm::VirtualMachine vm_full(exec_full);
  vm::VirtualMachine vm_none(exec_none);
  auto out_full =
      AsTensor(vm_full.Invoke("main", {MakeTensor(x), MakeTensor(w)}));
  auto out_none =
      AsTensor(vm_none.Invoke("main", {MakeTensor(x), MakeTensor(w)}));

  // M=3 hits residue 3: specialized under full dispatch, generic fallback
  // with one variant — each accounted in its own executable's table.
  EXPECT_GT(exec_full->dispatch_table.stats().specialized_calls, 0);
  EXPECT_EQ(exec_full->dispatch_table.stats().fallback_calls, 0);
  EXPECT_GT(exec_none->dispatch_table.stats().fallback_calls, 0);
  EXPECT_EQ(exec_none->dispatch_table.stats().specialized_calls, 0);
  // ...and neither executable's calls leaked into the other's table.
  EXPECT_EQ(exec_full->dispatch_table.stats().fallback_calls, 0);
  EXPECT_EQ(exec_none->dispatch_table.stats().specialized_calls, 0);
  // Both dispatch paths compute the same thing (up to accumulation-order
  // ulps — the specialized and generic kernels tile differently).
  for (int64_t i = 0; i < out_full.num_elements(); ++i) {
    EXPECT_NEAR(out_full.data<float>()[i], out_none.data<float>()[i], 1e-5);
  }
}

TEST(VM, RebindSwitchesExecutables) {
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  auto exec_add = CompileMain(
      MakeFunction({x}, op::Call2("add", x, FloatConst(1.0f))));
  Var y = MakeVar("y", ScalarType(DataType::Float32()));
  auto exec_mul = CompileMain(
      MakeFunction({y}, op::Call2("multiply", y, FloatConst(4.0f))));

  vm::VirtualMachine machine(exec_add);
  EXPECT_FLOAT_EQ(RunScalar(machine, {MakeTensor(NDArray::Scalar<float>(2.0f))}),
                  3.0f);
  machine.Rebind(exec_mul);
  EXPECT_EQ(machine.executable_ptr().get(), exec_mul.get());
  EXPECT_FLOAT_EQ(RunScalar(machine, {MakeTensor(NDArray::Scalar<float>(2.0f))}),
                  8.0f);
  machine.Rebind(exec_add);
  EXPECT_FLOAT_EQ(RunScalar(machine, {MakeTensor(NDArray::Scalar<float>(2.0f))}),
                  3.0f);
  EXPECT_THROW(machine.Rebind(nullptr), Error);
}

TEST(VM, UnboundVMRejectsInvoke) {
  vm::VirtualMachine machine(nullptr);
  EXPECT_THROW(machine.Invoke("main", {}), Error);
}

// ---- instruction encoding / serialization --------------------------------------

TEST(Bytecode, OpcodeNamesCoverTableA1) {
  // Exactly the 20 instructions of Table A.1.
  for (int i = 0; i < 20; ++i) {
    EXPECT_STRNE(vm::OpcodeName(static_cast<vm::Opcode>(i)), "<bad>");
  }
}

TEST(Bytecode, DevicePackingRoundtrip) {
  auto dev = runtime::Device::SimGPU(3);
  EXPECT_EQ(vm::UnpackDevice(vm::PackDevice(dev)), dev);
  EXPECT_EQ(vm::UnpackDevice(vm::PackDevice(runtime::Device::CPU())),
            runtime::Device::CPU());
}

TEST(Serialization, RoundtripPreservesEverything) {
  Var x = MakeVar("x", TensorType({Dim::Any(), Dim::Static(2)}));
  Var y = MakeVar("y", TensorType({1, 2}));
  auto exec = CompileMain(MakeFunction(
      {x, y}, op::Call2("concat", x, y, Attrs().Set("axis", 0))));

  std::stringstream buffer;
  exec->Save(buffer);
  auto reloaded = vm::Executable::Load(buffer);

  ASSERT_EQ(reloaded->functions.size(), exec->functions.size());
  for (size_t f = 0; f < exec->functions.size(); ++f) {
    const auto& a = exec->functions[f];
    const auto& b = reloaded->functions[f];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.num_params, b.num_params);
    EXPECT_EQ(a.register_file_size, b.register_file_size);
    ASSERT_EQ(a.instructions.size(), b.instructions.size());
    for (size_t i = 0; i < a.instructions.size(); ++i) {
      EXPECT_TRUE(a.instructions[i] == b.instructions[i]) << "instruction " << i;
    }
  }
  ASSERT_EQ(reloaded->packed.size(), exec->packed.size());
  for (size_t i = 0; i < exec->packed.size(); ++i) {
    EXPECT_EQ(reloaded->packed[i].name, exec->packed[i].name);
    EXPECT_TRUE(reloaded->packed[i].attrs == exec->packed[i].attrs);
  }
  ASSERT_EQ(reloaded->constants.size(), exec->constants.size());
  EXPECT_EQ(reloaded->dispatch_table.num_variants(),
            exec->dispatch_table.num_variants())
      << "dispatch configuration travels inside the executable";
}

TEST(Serialization, DispatchConfigSurvivesRoundtrip) {
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  auto exec = CompileMain(
      MakeFunction({x}, op::Call2("add", x, FloatConst(1.0f))));
  exec->dispatch_table.Configure(2);
  std::stringstream buffer;
  exec->Save(buffer);
  auto reloaded = vm::Executable::Load(buffer);
  EXPECT_EQ(reloaded->dispatch_table.num_variants(), 2)
      << "a loaded executable serves with the policy it was compiled with";
}

TEST(Serialization, DenseConfigSurvivesRoundtrip) {
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  auto exec = CompileMain(
      MakeFunction({x}, op::Call2("add", x, FloatConst(1.0f))));
  exec->dense_config = codegen::DenseConfig{64, 128};
  exec->dense_config_tuned = true;
  std::stringstream buffer;
  exec->Save(buffer);
  auto reloaded = vm::Executable::Load(buffer);
  EXPECT_EQ(reloaded->dense_config, (codegen::DenseConfig{64, 128}))
      << "a v6 executable carries its tuner-chosen blocking factors";
  EXPECT_TRUE(reloaded->dense_config_tuned);
  // Default (untuned) executables roundtrip the default config too.
  auto plain = CompileMain(
      MakeFunction({x}, op::Call2("add", x, FloatConst(1.0f))));
  std::stringstream buffer2;
  plain->Save(buffer2);
  auto reloaded2 = vm::Executable::Load(buffer2);
  EXPECT_EQ(reloaded2->dense_config, codegen::DenseConfig{});
  EXPECT_FALSE(reloaded2->dense_config_tuned);
}

TEST(Serialization, ReloadedExecutableRuns) {
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  auto exec = CompileMain(
      MakeFunction({x}, op::Call2("add", x, FloatConst(2.5f))));
  std::stringstream buffer;
  exec->Save(buffer);
  vm::VirtualMachine machine(vm::Executable::Load(buffer));
  EXPECT_FLOAT_EQ(RunScalar(machine, {MakeTensor(NDArray::Scalar<float>(1.0f))}),
                  3.5f);
}

TEST(Serialization, RejectsGarbage) {
  std::stringstream buffer;
  buffer << "not an executable";
  EXPECT_THROW(vm::Executable::Load(buffer), Error);
}

TEST(Serialization, ConstantsSurviveWithWeights) {
  NDArray weight = NDArray::FromVector<float>({1, 2, 3, 4}, {4});
  Var x = MakeVar("x", TensorType(std::vector<int64_t>{4}));
  auto exec = CompileMain(
      MakeFunction({x}, op::Call2("add", x, MakeConstant(weight))));
  std::stringstream buffer;
  exec->Save(buffer);
  auto reloaded = vm::Executable::Load(buffer);
  bool found = false;
  for (const auto& c : reloaded->constants) {
    if (c.num_elements() == 4 && c.data<float>()[2] == 3.0f) found = true;
  }
  EXPECT_TRUE(found) << "weights travel inside the executable";
}

TEST(Disassemble, MentionsPackedCallsAndInstructions) {
  Var x = MakeVar("x", TensorType(std::vector<int64_t>{2}));
  auto exec = CompileMain(MakeFunction({x}, op::Call1("sigmoid", x)));
  std::string text = exec->Disassemble();
  EXPECT_NE(text.find("InvokePacked"), std::string::npos);
  EXPECT_NE(text.find("sigmoid"), std::string::npos);
  EXPECT_NE(text.find("func @main"), std::string::npos);
}

TEST(VMRegisters, KillRecyclesRegisters) {
  // A long chain of dead intermediates should not need a register each:
  // memory.kill allows the compiler to recycle them.
  Var x = MakeVar("x", TensorType(std::vector<int64_t>{8}));
  Expr e = x;
  for (int i = 0; i < 20; ++i) e = op::Call1("sigmoid", e);
  auto exec = CompileMain(MakeFunction({x}, e));
  const auto& fn = exec->functions[exec->FunctionIndex("main")];
  EXPECT_LT(fn.register_file_size, 40)
      << "register recycling via kill should bound the frame size";
}

// ---- packed-call resolution, dead result registers, packed-call profile ------

/// The three paper models, compiled as the serving layer compiles them
/// (the LSTM with its batched and single-step twins), plus one input each
/// and a generator of inputs of any size (sequence length, tree leaves,
/// token count).
struct PaperModel {
  std::string name;
  std::shared_ptr<vm::Executable> exec;
  std::vector<runtime::ObjectRef> args;
  std::function<std::vector<runtime::ObjectRef>(int64_t, support::Rng&)>
      make_args;
};

std::vector<PaperModel> PaperModels() {
  std::vector<PaperModel> out;
  support::Rng rng(5);
  {
    models::LSTMConfig config;
    config.input_size = 16;
    config.hidden_size = 24;
    config.emit_batched = true;
    auto model = models::BuildLSTM(config);
    core::CompileOptions options;
    options.batched_entries = {model.batched_spec};
    auto make_args = [width = config.input_size](int64_t len,
                                                 support::Rng& r) {
      NDArray x = models::RandomSequence(len, width, r);
      return std::vector<runtime::ObjectRef>{
          MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(len))};
    };
    out.push_back({"lstm", core::Compile(model.module, options).executable,
                   make_args(6, rng), make_args});
  }
  {
    models::TreeLSTMConfig config;
    config.input_size = 10;
    config.hidden_size = 12;
    auto model = models::BuildTreeLSTM(config);
    auto make_args = [width = config.input_size](int64_t leaves,
                                                 support::Rng& r) {
      auto tree = models::RandomTree(static_cast<int>(leaves), width, r);
      return std::vector<runtime::ObjectRef>{models::TreeToObject(*tree)};
    };
    out.push_back({"tree_lstm", core::Compile(model.module).executable,
                   make_args(5, rng), make_args});
  }
  {
    models::BERTConfig config;
    config.num_layers = 1;
    config.hidden = 32;
    config.num_heads = 2;
    config.ffn_hidden = 64;
    config.vocab = 50;
    auto model = models::BuildBERT(config);
    auto make_args = [vocab = config.vocab](int64_t len, support::Rng& r) {
      auto ids = models::RandomTokenIds(len, vocab, r);
      return std::vector<runtime::ObjectRef>{
          MakeTensor(NDArray::FromVector(ids, {len}))};
    };
    out.push_back({"bert", core::Compile(model.module).executable,
                   make_args(7, rng), make_args});
  }
  return out;
}

TEST(VMCompiler, EveryReadRegisterIsWritten) {
  // memory.invoke_mut and vm.shape_func yield no value, so the compiler
  // gives their result no register. Every register an instruction reads
  // must therefore be a parameter or some instruction's destination.
  for (const PaperModel& model : PaperModels()) {
    for (const vm::VMFunction& fn : model.exec->functions) {
      std::set<vm::RegName> written;
      for (vm::RegName r = 0; r < fn.num_params; ++r) written.insert(r);
      for (const vm::Instruction& inst : fn.instructions) {
        if (inst.dst >= 0) written.insert(inst.dst);
      }
      for (size_t pc = 0; pc < fn.instructions.size(); ++pc) {
        for (vm::RegName r : fn.instructions[pc].args) {
          EXPECT_TRUE(written.count(r) > 0)
              << model.name << " @" << fn.name << " pc " << pc << " reads r"
              << r << ", which nothing writes";
        }
      }
    }
  }
}

TEST(VMCompiler, LSTMStepHasNoLoadConsti) {
  const PaperModel lstm = PaperModels().front();
  const vm::VMFunction& step =
      lstm.exec->functions[lstm.exec->FunctionIndex("main_step")];
  int64_t packed = 0;
  for (const vm::Instruction& inst : step.instructions) {
    EXPECT_NE(inst.op, vm::Opcode::kLoadConsti)
        << "dead result load in @main_step";
    if (inst.op == vm::Opcode::kInvokePacked) ++packed;
  }
  EXPECT_GT(packed, 0);
}

bool SameBits(const NDArray& a, const NDArray& b) {
  return a.shape() == b.shape() && a.nbytes() == b.nbytes() &&
         std::memcmp(a.raw_data(), b.raw_data(), a.nbytes()) == 0;
}

TEST(VMProfile, ProfilingDoesNotChangeOutputs) {
  for (const PaperModel& model : PaperModels()) {
    vm::VirtualMachine plain(model.exec);
    vm::VirtualMachine profiled(model.exec);
    profiled.EnableProfiling(true);
    NDArray a = AsTensor(plain.Invoke("main", model.args));
    NDArray b = AsTensor(profiled.Invoke("main", model.args));
    EXPECT_TRUE(SameBits(a, b)) << model.name;
    EXPECT_GT(profiled.profile().instructions, 0) << model.name;
    EXPECT_EQ(plain.profile().instructions, 0) << model.name;
  }
}

TEST(VMProfile, PackedRowsAccountForEveryPackedCall) {
  for (const PaperModel& model : PaperModels()) {
    vm::VirtualMachine machine(model.exec);
    machine.EnableProfiling(true);
    for (int i = 0; i < 3; ++i) machine.Invoke("main", model.args);
    const vm::VMProfile& prof = machine.profile();
    EXPECT_LE(prof.kernel_nanos + prof.shape_func_nanos, prof.total_nanos)
        << model.name;
    int64_t calls = 0, nanos = 0;
    ASSERT_LE(prof.per_packed.size(), model.exec->packed.size());
    for (size_t i = 0; i < prof.per_packed.size(); ++i) {
      const vm::VMProfile::PackedRow& row = prof.per_packed[i];
      if (row.calls == 0) continue;
      EXPECT_EQ(row.name, model.exec->packed[i].name) << model.name;
      calls += row.calls;
      nanos += row.nanos;
    }
    EXPECT_EQ(calls,
              prof.per_opcode[static_cast<size_t>(vm::Opcode::kInvokePacked)])
        << model.name;
    EXPECT_EQ(nanos, prof.kernel_nanos + prof.shape_func_nanos) << model.name;
    int64_t instructions = 0;
    for (int64_t count : prof.per_opcode) instructions += count;
    EXPECT_EQ(instructions, prof.instructions) << model.name;
  }
}

TEST(VM, AlternatingRebindResolvesEachPackedTable) {
  // Two executables whose packed tables hold different kernels at the same
  // index: a VM resolving entries once per executable must re-resolve on
  // every Rebind, or it runs the other model's kernel.
  Var x = MakeVar("x", TensorType(std::vector<int64_t>{4}));
  auto sub = CompileMain(MakeFunction({x}, op::Call2("subtract", x, x)));
  Var y = MakeVar("y", TensorType(std::vector<int64_t>{4}));
  auto mul = CompileMain(MakeFunction(
      {y}, op::Call2("divide", y, op::Call2("add", y, y))));
  ASSERT_FALSE(sub->packed.empty());
  ASSERT_FALSE(mul->packed.empty());
  ASSERT_NE(sub->packed[0].name, mul->packed[0].name);
  NDArray in = NDArray::FromVector<float>({1, 2, 3, 4}, {4});
  vm::VirtualMachine machine(sub);
  for (int round = 0; round < 4; ++round) {
    machine.Rebind(round % 2 == 0 ? sub : mul);
    machine.EnableProfiling(true);
    NDArray out = AsTensor(machine.Invoke("main", {MakeTensor(in)}));
    float want = round % 2 == 0 ? 0.0f : 0.5f;
    for (int64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(out.data<float>()[i], want) << "round " << round;
    }
    const auto& rows = machine.profile().per_packed;
    const auto& table = machine.executable().packed;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].calls > 0) EXPECT_EQ(rows[i].name, table[i].name);
    }
  }
}

// ---- recycle table: storage and shape tensors reused across invocations ----

using runtime::ObjectRef;

/// Bitwise equality of two results: tensors by bits, ADTs by tag and fields.
bool SameObjectBits(const ObjectRef& a, const ObjectRef& b) {
  if (a->tag() != b->tag()) return false;
  if (a->tag() == runtime::ObjectTag::kTensor) {
    return SameBits(AsTensor(a), AsTensor(b));
  }
  if (a->tag() != runtime::ObjectTag::kADT) return false;
  const runtime::ADTObj* x = runtime::AsADT(a);
  const runtime::ADTObj* y = runtime::AsADT(b);
  if (x->ctor_tag != y->ctor_tag || x->fields.size() != y->fields.size()) {
    return false;
  }
  for (size_t i = 0; i < x->fields.size(); ++i) {
    if (!SameObjectBits(x->fields[i], y->fields[i])) return false;
  }
  return true;
}

/// A deep copy of a result (tensors and ADTs), sharing no buffer with it.
ObjectRef DeepCopy(const ObjectRef& obj) {
  if (obj->tag() == runtime::ObjectTag::kTensor) {
    const NDArray& t = AsTensor(obj);
    return MakeTensor(t.CopyTo(t.device()));
  }
  const runtime::ADTObj* adt = runtime::AsADT(obj);
  std::vector<ObjectRef> fields;
  for (const ObjectRef& f : adt->fields) fields.push_back(DeepCopy(f));
  return runtime::MakeADT(adt->ctor_tag, std::move(fields));
}

/// The continuously served model (LSTM 64/128 with its single-step twin),
/// compiled as the serving layer compiles it.
struct StepModel {
  std::shared_ptr<vm::Executable> exec;
  vm::BatchedEntrySpec spec;
};

StepModel ServedStepModel() {
  models::LSTMConfig config;
  config.input_size = 64;
  config.hidden_size = 128;
  config.emit_batched = true;
  auto model = models::BuildLSTM(config);
  core::CompileOptions options;
  options.batched_entries = {model.batched_spec};
  return {core::Compile(model.module, options).executable, model.batched_spec};
}

std::vector<ObjectRef> ZeroStates(const StepModel& m, int64_t slots) {
  std::vector<ObjectRef> states;
  for (int32_t s = 0; s < m.spec.num_state_args; ++s) {
    NDArray state = NDArray::Empty({slots, m.spec.state_width},
                                   DataType::Float32());
    state.Fill(0.0);
    states.push_back(MakeTensor(state));
  }
  return states;
}

/// One step's arguments at `slots` rows: a random x_t, a random active mask
/// (row 0 always live) and `states`.
std::vector<ObjectRef> StepArgs(const StepModel& m,
                                const std::vector<ObjectRef>& states,
                                int64_t slots, support::Rng& rng) {
  NDArray active = NDArray::Empty({slots, 1}, DataType::Int64());
  for (int64_t i = 0; i < slots; ++i) {
    active.data<int64_t>()[i] = (i == 0 || rng.Uniform() < 0.75) ? 1 : 0;
  }
  std::vector<ObjectRef> args = {
      MakeTensor(models::RandomSequence(slots, m.spec.feature_width, rng)),
      MakeTensor(active)};
  args.insert(args.end(), states.begin(), states.end());
  return args;
}

std::vector<ObjectRef> StatesOf(const ObjectRef& result) {
  return runtime::AsADT(result)->fields;
}

TEST(VMRecycle, WarmServedStepAllocatesOnlyItsReturnedStates) {
  // The served @main_step at 4 slots runs 14 AllocStorage and 16 ShapeOf.
  // Once warm, only the storage of the two returned states (which escape
  // with the result) is allocated again; every temporary and shape tensor
  // is reused, and nothing goes through the global naive allocator.
  StepModel m = ServedStepModel();
  ASSERT_EQ(m.spec.num_state_args, 2);
  runtime::PoolingAllocator pool;
  runtime::Allocator* naive = runtime::GlobalNaiveAllocator();
  vm::VirtualMachine machine(m.exec, &pool);
  support::Rng rng(11);
  std::vector<ObjectRef> states = ZeroStates(m, 4);
  for (int step = 0; step < 12; ++step) {
    std::vector<ObjectRef> args = StepArgs(m, states, 4, rng);
    int64_t pool_calls = pool.stats().alloc_calls;
    int64_t naive_calls = naive->stats().alloc_calls;
    ObjectRef result = machine.Invoke(m.spec.step_function, std::move(args));
    if (step >= 2) {
      EXPECT_EQ(pool.stats().alloc_calls - pool_calls, 2) << "step " << step;
      EXPECT_EQ(naive->stats().alloc_calls - naive_calls, 0)
          << "step " << step;
    }
    states = StatesOf(result);
  }
}

TEST(VMRecycle, HeldResultsAreNeverOverwritten) {
  // A result kept by the caller must not be recycled by later invocations,
  // whether the caller passes it back in (the step states) or not.
  StepModel m = ServedStepModel();
  vm::VirtualMachine machine(m.exec);
  support::Rng rng(12);
  std::vector<ObjectRef> states = ZeroStates(m, 4);
  for (int k = 0; k < 6; ++k) {
    ObjectRef held = machine.Invoke(m.spec.step_function,
                                    StepArgs(m, states, 4, rng));
    ObjectRef snapshot = DeepCopy(held);
    states = StatesOf(held);
    for (int j = 1; j <= 3; ++j) {
      states = StatesOf(machine.Invoke(m.spec.step_function,
                                       StepArgs(m, states, 4, rng)));
    }
    EXPECT_TRUE(SameObjectBits(held, snapshot)) << "invocation " << k;
  }
  for (const PaperModel& model : PaperModels()) {
    vm::VirtualMachine vm_model(model.exec);
    ObjectRef held = vm_model.Invoke("main", model.args);
    ObjectRef snapshot = DeepCopy(held);
    for (int j = 0; j < 3; ++j) {
      vm_model.Invoke("main", model.make_args(4 + j, rng));
      vm_model.Invoke("main", model.args);
    }
    EXPECT_TRUE(SameObjectBits(held, snapshot)) << model.name;
  }
}

TEST(VMRecycle, ResultsReleasedOnAnotherThread) {
  // Results are read and dropped by a consumer thread while the VM keeps
  // invoking. Each result gets its own entry, published with a release
  // store, and the VM allocates through a NaiveAllocator, whose frees take
  // no lock: nothing in the test orders the consumer's reads before the
  // VM's later steps, so under TSan a VM write to a buffer the consumer
  // still holds is reported. Each result must still hold its bits when the
  // consumer reads it.
  constexpr int kSteps = 200;
  StepModel m = ServedStepModel();
  runtime::NaiveAllocator naive;
  vm::VirtualMachine machine(m.exec, &naive);
  std::vector<std::pair<ObjectRef, ObjectRef>> handed(kSteps);  // result, copy
  std::atomic<int> published{0};
  int mismatches = 0;
  std::thread consumer([&] {
    for (int i = 0; i < kSteps; ++i) {
      while (published.load(std::memory_order_acquire) <= i) {
        std::this_thread::yield();
      }
      if (!SameObjectBits(handed[i].first, handed[i].second)) ++mismatches;
      handed[i] = {};  // the result is dropped here, on this thread
    }
  });
  support::Rng rng(13);
  std::vector<ObjectRef> states = ZeroStates(m, 4);
  for (int step = 0; step < kSteps; ++step) {
    ObjectRef result =
        machine.Invoke(m.spec.step_function, StepArgs(m, states, 4, rng));
    // Every fourth step restarts from zero states, so those results are
    // held by the consumer alone.
    states = step % 4 == 3 ? ZeroStates(m, 4) : StatesOf(result);
    handed[step] = {result, DeepCopy(result)};
    published.store(step + 1, std::memory_order_release);
  }
  consumer.join();
  EXPECT_EQ(mismatches, 0);
}

TEST(VMRecycle, ResetRebindAndSetAllocatorEmptyTheTable) {
  StepModel m = ServedStepModel();
  runtime::PoolingAllocator pool;
  vm::VirtualMachine machine(m.exec, &pool);
  support::Rng rng(14);
  auto run_steps = [&] {
    std::vector<ObjectRef> states = ZeroStates(m, 4);
    for (int step = 0; step < 5; ++step) {
      states = StatesOf(machine.Invoke(m.spec.step_function,
                                       StepArgs(m, states, 4, rng)));
    }
  };  // every result is dropped here
  run_steps();
  EXPECT_GT(pool.stats().live_bytes, 0) << "the table held no temporaries";
  machine.Reset();
  EXPECT_EQ(pool.stats().live_bytes, 0);

  run_steps();
  EXPECT_GT(pool.stats().live_bytes, 0);
  machine.Rebind(m.exec);
  EXPECT_EQ(pool.stats().live_bytes, 0);

  run_steps();
  runtime::PoolingAllocator other;
  machine.set_allocator(&other);
  EXPECT_EQ(pool.stats().live_bytes, 0);
  run_steps();
  EXPECT_EQ(pool.stats().live_bytes, 0) << "old allocator used after switch";
  EXPECT_GT(other.stats().live_bytes, 0);
  machine.Reset();
  EXPECT_EQ(other.stats().live_bytes, 0);
}

TEST(VMRecycle, DroppedResultsGoBackToTheAllocator) {
  // The outermost Ret evicts what the result references, so the caller
  // owns the result's buffers alone: dropping it frees them at once rather
  // than leaving them to the table.
  StepModel m = ServedStepModel();
  runtime::PoolingAllocator pool;
  vm::VirtualMachine machine(m.exec, &pool);
  support::Rng rng(16);
  for (int step = 0; step < 4; ++step) {
    ObjectRef result = machine.Invoke(m.spec.step_function,
                                      StepArgs(m, ZeroStates(m, 4), 4, rng));
    std::set<const runtime::Buffer*> buffers;
    int64_t result_bytes = 0;
    for (const ObjectRef& state : StatesOf(result)) {
      const runtime::Buffer* buffer = AsTensor(state).storage().get();
      if (buffers.insert(buffer).second) {
        result_bytes += static_cast<int64_t>(buffer->size);
      }
    }
    int64_t live = pool.stats().live_bytes;
    result = nullptr;
    EXPECT_EQ(pool.stats().live_bytes, live - result_bytes) << "step " << step;
  }
}

vm::Instruction Inst(vm::Opcode op, vm::RegName dst,
                     std::vector<vm::RegName> args, int64_t imm0 = 0,
                     int64_t imm1 = 0, int64_t imm2 = 0,
                     std::vector<int64_t> extra = {}) {
  vm::Instruction inst;
  inst.op = op;
  inst.dst = dst;
  inst.args = std::move(args);
  inst.imm0 = imm0;
  inst.imm1 = imm1;
  inst.imm2 = imm2;
  inst.extra = std::move(extra);
  return inst;
}

TEST(VMRecycle, ObjectsStillViewedByAnOuterFrameAreNotReused) {
  // f(x, y, flag) drops its registers for one AllocStorage and one ShapeOf
  // result while views of them stay live, then (flag == 1) recurses with
  // other inputs, so the inner frame reaches both instructions while the
  // table holds the only reference to the outer objects but not to their
  // buffers. Reusing them would overwrite the outer frame's results.
  using vm::Opcode;
  const int64_t f32 = static_cast<int64_t>(runtime::DTypeCode::kFloat32);
  auto exec = std::make_shared<vm::Executable>();
  exec->constants = {runtime::ShapeTensor({1}),
                     NDArray::FromVector<float>({5, 6, 7, 8}, {4}),
                     NDArray::FromVector<float>({0, 0, 0, 0, 0, 0, 0}, {7})};
  vm::PackedEntry add;
  add.name = "add";
  add.num_inputs = 2;
  exec->packed = {add};
  vm::VMFunction fn;
  fn.name = "f";
  fn.num_params = 3;  // x: f32[4], y: f32[n], flag: i64
  fn.register_file_size = 13;
  fn.instructions = {
      Inst(Opcode::kAllocStorage, 3, {}, 16, f32,
           vm::PackDevice(runtime::Device::CPU())),
      Inst(Opcode::kAllocTensor, 4, {3}, 0, f32, 0, {4}),
      Inst(Opcode::kMove, 3, {0}),  // the storage's register is dropped
      Inst(Opcode::kInvokePacked, -1, {0, 0, 4}, 0, 2),  // r4 = x + x
      Inst(Opcode::kShapeOf, 5, {1}),
      Inst(Opcode::kLoadConst, 6, {}, 0),
      Inst(Opcode::kReshapeTensor, 7, {5, 6}),  // a second view of r5
      Inst(Opcode::kMove, 5, {0}),  // the shape tensor's register is dropped
      Inst(Opcode::kAllocADT, 8, {4, 7}, -1),
      Inst(Opcode::kLoadConsti, 9, {}, 1),
      Inst(Opcode::kIf, -1, {2, 9}, 1, 6),
      Inst(Opcode::kLoadConst, 10, {}, 1),
      Inst(Opcode::kLoadConst, 11, {}, 2),
      Inst(Opcode::kLoadConsti, 12, {}, 0),
      Inst(Opcode::kInvoke, 9, {10, 11, 12}, 0),
      Inst(Opcode::kAllocADT, 8, {8, 9}, -1),
      Inst(Opcode::kRet, -1, {8}),
  };
  exec->functions = {fn};
  exec->function_index["f"] = 0;
  vm::VirtualMachine machine(exec);
  for (int round = 0; round < 3; ++round) {
    ObjectRef out = machine.Invoke(
        "f", {MakeTensor(NDArray::FromVector<float>({1, 2, 3, 4}, {4})),
              MakeTensor(NDArray::FromVector<float>({0, 0, 0, 0, 0}, {5})),
              MakeTensor(NDArray::Scalar<int64_t>(1))});
    const runtime::ADTObj* outer = runtime::AsADT(runtime::AsADT(out)->fields[0]);
    const runtime::ADTObj* inner = runtime::AsADT(runtime::AsADT(out)->fields[1]);
    for (int64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(AsTensor(outer->fields[0]).data<float>()[i], 2.0f * (i + 1));
      EXPECT_EQ(AsTensor(inner->fields[0]).data<float>()[i], 2.0f * (i + 5));
    }
    EXPECT_EQ(AsTensor(outer->fields[1]).data<int64_t>()[0], 5);
    EXPECT_EQ(AsTensor(inner->fields[1]).data<int64_t>()[0], 7);
  }
}

TEST(VMRecycle, BackToBackInvocationsMatchAFreshVM) {
  // 50 invocations with varying sizes, so storage sizes change from call to
  // call (the size-mismatch fallback) and come back (reuse), each compared
  // bitwise against a VM that has never run.
  support::Rng rng(15);
  for (const PaperModel& model : PaperModels()) {
    vm::VirtualMachine machine(model.exec);
    for (int i = 0; i < 50; ++i) {
      auto args = model.make_args(rng.UniformInt(1, 9), rng);
      ObjectRef got = machine.Invoke("main", args);
      vm::VirtualMachine fresh(model.exec);
      ObjectRef want = fresh.Invoke("main", args);
      ASSERT_TRUE(SameObjectBits(got, want))
          << model.name << " invocation " << i;
    }
  }
  StepModel m = ServedStepModel();
  vm::VirtualMachine machine(m.exec);
  std::vector<ObjectRef> states;
  int64_t slots = 0;
  for (int i = 0; i < 50; ++i) {
    if (i % 5 == 0) {  // change the slot count every five steps
      slots = rng.UniformInt(1, 6);
      states = ZeroStates(m, slots);
    }
    auto args = StepArgs(m, states, slots, rng);
    ObjectRef got = machine.Invoke(m.spec.step_function, args);
    vm::VirtualMachine fresh(m.exec);
    ObjectRef want = fresh.Invoke(m.spec.step_function, args);
    ASSERT_TRUE(SameObjectBits(got, want)) << "step " << i;
    states = StatesOf(got);
  }
}

}  // namespace
}  // namespace nimble
