//===----------------------------------------------------------------------===//
///
/// \file
/// Module: the whole-program unit the WARio pipeline operates on. Mirrors
/// the paper's front end, which links all translation units into a single
/// combined IR before any transformation runs.
///
//===----------------------------------------------------------------------===//

#ifndef WARIO_IR_MODULE_H
#define WARIO_IR_MODULE_H

#include "ir/Function.h"
#include "ir/IRContext.h"

#include <map>
#include <memory>
#include <vector>

namespace wario {

/// Owns all functions, global variables, and interned integer constants of
/// one program — physically, everything lives in the IRContext's arena,
/// and dropping the Module releases that arena wholesale (no per-node
/// destruction).
class Module {
public:
  explicit Module(std::string Name)
      : Name(std::move(Name)), Ctx(std::make_unique<IRContext>()) {}
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  const std::string &getName() const { return Name; }

  IRContext &getContext() const { return *Ctx; }

  // -- Functions ---------------------------------------------------------------
  Function *createFunction(std::string FnName, unsigned NumParams,
                           bool ReturnsVal);
  Function *getFunction(const std::string &FnName) const;
  const std::vector<Function *> &functions() const { return Functions; }

  // -- Globals ------------------------------------------------------------------
  GlobalVariable *createGlobal(std::string GlobalName, uint32_t SizeBytes,
                               const std::vector<uint8_t> &Init = {});
  GlobalVariable *getGlobal(const std::string &GlobalName) const;
  const std::vector<GlobalVariable *> &globals() const { return Globals; }

  // -- Constants -----------------------------------------------------------------
  /// Returns the interned Constant for \p V.
  Constant *getConstant(int32_t V) { return Ctx->getConstant(V); }
  /// All interned constants, ordered by value (cloneModule walks these).
  const std::map<int32_t, Constant *> &constants() const {
    return Ctx->constants();
  }

private:
  friend struct ModuleCloner;

  std::string Name;
  std::unique_ptr<IRContext> Ctx;
  std::vector<GlobalVariable *> Globals;
  std::vector<Function *> Functions;
};

} // namespace wario

#endif // WARIO_IR_MODULE_H
