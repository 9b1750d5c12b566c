// Virtual machine interpreter (§5.2).
//
// Loads an executable and runs its bytecode in a dispatch loop. Objects in
// the register file are reference-counted and passed by reference, so
// register operations are cheap regardless of payload size. Each entry of
// the executable's packed-call table is resolved to its kernel or shape
// function once per bound executable, not looked up by name per call. The
// interpreter optionally records a profile (VMProfile: packed-call time per
// entry, kernel vs shape-function vs total time, instruction counts), used
// by the Table 4 overhead study and the serving traces.
//
// Thread-safety contract (serving subsystem, src/serve/):
//   A VirtualMachine instance is single-threaded — it owns a mutable frame
//   stack and profile. Concurrency is achieved by running *many* VMs, one
//   per worker thread, all sharing one immutable Executable (cheap: a VM is
//   a few pointers, the resolved packed table and the recycled frame stack
//   and argument lists). Invoke is reusable: each call starts from a clean
//   frame stack, whose backing storage is retained across calls so
//   steady-state serving does not reallocate it.
//
// Recycling: repeated invocations of a function reuse each AllocStorage's
// storage and each ShapeOf's shape tensor from the previous execution of
// the same instruction (the recycle table, one slot per (function, pc)), and
// LoadConst/LoadConsti return objects built once per bound executable. An
// object is reused only while the table holds the sole reference to it and
// to its buffer. At the outermost Ret every entry the result still
// references is evicted, so a recycled buffer has only ever been referenced
// by this VM's registers on its own thread and a caller's result is never
// overwritten. Reset, Rebind and set_allocator empty the table.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/kernels/registry.h"
#include "src/runtime/allocator.h"
#include "src/runtime/object.h"
#include "src/support/logging.h"
#include "src/vm/executable.h"

namespace nimble {
namespace op {
struct OpInfo;
}  // namespace op

namespace vm {

/// Execution profile, recorded only while profiling is on. Only packed
/// calls (kernels and shape functions) and whole Invoke calls are timed;
/// instructions are counted, not timed, so the profile costs two clock
/// reads per packed call and per Invoke.
struct VMProfile {
  /// Time in one entry of the bound executable's packed-call table.
  struct PackedRow {
    std::string name;  // kernel name, or op name for shape functions
    bool shape_func = false;
    int64_t calls = 0;
    int64_t nanos = 0;
  };
  std::array<int64_t, 20> per_opcode{};  // executed instructions per opcode
  /// Indexed like Executable::packed; grows as entries run.
  std::vector<PackedRow> per_packed;
  int64_t kernel_nanos = 0;      // InvokePacked on compute kernels
  int64_t shape_func_nanos = 0;  // InvokePacked on shape functions
  int64_t total_nanos = 0;       // whole Invoke calls
  int64_t instructions = 0;

  int64_t other_nanos() const { return total_nanos - kernel_nanos; }
  void Reset() { *this = VMProfile{}; }
  std::string ToString() const;
};

class VirtualMachine {
 public:
  /// `exec` may be null: serving pools construct their workers unbound and
  /// Rebind() them to the executable of each batch they pull. Invoking an
  /// unbound VM is an error.
  explicit VirtualMachine(std::shared_ptr<Executable> exec,
                          runtime::Allocator* allocator = nullptr);

  /// Runs a function by name (default: "main"). Single-threaded: only the
  /// thread that owns this VM may call Invoke (see the contract above).
  runtime::ObjectRef Invoke(const std::string& name,
                            std::vector<runtime::ObjectRef> args);
  runtime::ObjectRef Invoke(std::vector<runtime::ObjectRef> args) {
    return Invoke("main", std::move(args));
  }

  void EnableProfiling(bool on) { profiling_ = on; }
  const VMProfile& profile() const { return profile_; }
  VMProfile& mutable_profile() { return profile_; }

  /// The bound executable; the VM must be bound (throws otherwise).
  const Executable& executable() const {
    NIMBLE_CHECK(exec_ != nullptr) << "VM has no executable bound";
    return *exec_;
  }
  /// The bound executable (shared with every other VM serving this model);
  /// null while the VM is unbound.
  const std::shared_ptr<Executable>& executable_ptr() const { return exec_; }
  runtime::Allocator* allocator() const { return allocator_; }

  /// Redirects allocations (e.g. to a per-worker pool) and empties the
  /// recycle table. Must not be called while Invoke is running.
  void set_allocator(runtime::Allocator* allocator);

  /// Binds the VM to a different executable — how a serving pool worker
  /// switches between models. Equivalent to constructing a fresh VM minus
  /// the registry setup: the frame stack, recycle table and profile are
  /// cleared, the allocator binding is kept, and the new packed table and
  /// constant objects are built. Cheap (a shared_ptr swap plus one registry
  /// lookup per packed entry and one small object per constant),
  /// single-threaded like Invoke: must not be called while Invoke is
  /// running, and only by the owning thread. `exec` must not be null.
  void Rebind(std::shared_ptr<Executable> exec);

  /// Returns the VM to its post-construction state: clears the frame stack
  /// (releasing any objects retained by an Invoke that threw), the recycle
  /// table and the profile, so the VM holds no allocator memory. Pool
  /// workers call this to recycle a VM between batches.
  void Reset();

 private:
  struct Frame {
    int32_t func_index;
    size_t pc = 0;
    std::vector<runtime::ObjectRef> regs;
    RegName caller_dst = -1;
  };

  runtime::ObjectRef Run(Frame initial);
  void RunInstruction(const Instruction& inst, std::vector<Frame>& stack,
                      runtime::ObjectRef* final_result, bool* done);

  void RunPacked(const Instruction& inst, Frame& frame);
  /// Builds the per-executable state: resolves exec_'s packed table into
  /// resolved_, lays out the recycle table and builds the constant objects.
  void Bind();
  /// The recycle-table slot of the instruction at `frame`'s pc.
  runtime::ObjectRef& RecycleSlot(const Frame& frame) {
    return recycled_[func_base_[frame.func_index] + frame.pc];
  }
  /// Drops every recycle-table entry the escaping result still references.
  void EvictEscaped();
  void ClearRecycled();

  /// A packed-table entry's kernel or shape function. Null until the name
  /// is registered; RunPacked then looks it up (and throws if absent).
  struct ResolvedEntry {
    const kernels::ContextKernelFn* kernel = nullptr;
    const op::OpInfo* shape_func = nullptr;
  };

  std::shared_ptr<Executable> exec_;
  std::vector<ResolvedEntry> resolved_;  // indexed like exec_->packed
  runtime::Allocator* allocator_;
  bool profiling_ = false;
  VMProfile profile_;
  /// Frame stack, recycled across Invoke calls (capacity is retained so
  /// repeated invocations don't reallocate it).
  std::vector<Frame> stack_;
  /// Kernel argument lists, refilled per packed call and emptied after it
  /// (so they keep their capacity but no tensor).
  std::vector<runtime::NDArray> packed_inputs_, packed_outputs_;
  /// Flat index of each function's first instruction: (function, pc) maps
  /// to func_base_[function] + pc in recycled_ and consti_.
  std::vector<size_t> func_base_;
  /// Recycle table: the StorageObj of each AllocStorage and the shape tensor
  /// of each ShapeOf from its last execution (null for other instructions
  /// and after eviction).
  std::vector<runtime::ObjectRef> recycled_;
  /// Read-only constant objects: one per exec_->constants entry, and one
  /// int64 scalar per LoadConsti instruction (by flat index).
  std::vector<runtime::ObjectRef> constants_;
  std::vector<runtime::ObjectRef> consti_;
};

}  // namespace vm
}  // namespace nimble
