#include "src/op/registry.h"

#include <mutex>
#include <unordered_map>

#include "src/support/logging.h"

namespace nimble {
namespace op {

OpRegistry* OpRegistry::Global() {
  static OpRegistry registry;
  return &registry;
}

OpInfo& OpRegistry::Register(const std::string& name) {
  auto& info = ops_[name];
  info.name = name;
  if (info.kernel_name.empty()) info.kernel_name = name;
  return info;
}

const OpInfo& OpRegistry::Get(const std::string& name) const {
  const OpInfo* info = Find(name);
  NIMBLE_CHECK(info != nullptr) << "unknown operator '" << name << "'";
  return *info;
}

const OpInfo* OpRegistry::Find(const std::string& name) const {
  auto it = ops_.find(name);
  return it == ops_.end() ? nullptr : &it->second;
}

std::vector<std::string> OpRegistry::ListNames() const {
  std::vector<std::string> names;
  names.reserve(ops_.size());
  for (const auto& [name, info] : ops_) names.push_back(name);
  return names;
}

ir::Op GetOp(const std::string& name) {
  EnsureOpsRegistered();
  NIMBLE_CHECK(OpRegistry::Global()->Has(name))
      << "unknown operator '" << name << "'";
  static std::unordered_map<std::string, ir::Op> interned;
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  auto it = interned.find(name);
  if (it != interned.end()) return it->second;
  auto op = std::make_shared<ir::OpNode>(name);
  interned[name] = op;
  return op;
}

const OpInfo& InfoOf(const ir::Expr& op_expr) {
  return OpRegistry::Global()->Get(ir::AsOp(op_expr)->name);
}

ir::Expr Call1(const std::string& op, ir::Expr a, ir::Attrs attrs) {
  return ir::MakeCall(GetOp(op), {std::move(a)}, std::move(attrs));
}
ir::Expr Call2(const std::string& op, ir::Expr a, ir::Expr b, ir::Attrs attrs) {
  return ir::MakeCall(GetOp(op), {std::move(a), std::move(b)}, std::move(attrs));
}
ir::Expr Call3(const std::string& op, ir::Expr a, ir::Expr b, ir::Expr c,
               ir::Attrs attrs) {
  return ir::MakeCall(GetOp(op), {std::move(a), std::move(b), std::move(c)},
                      std::move(attrs));
}

}  // namespace op
}  // namespace nimble
