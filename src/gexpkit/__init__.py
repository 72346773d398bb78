"""gexpkit: staged build programs with hygienic escapes, a
content-addressed store, and a deterministic builder.

Each name below is imported from its submodule on first access (PEP
562), so ``import gexpkit`` loads no submodule, and a program loads
only the tiers it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "builder": ("EvalEnv", "mini_eval"),
    "gexp": ("Gexp", "HostEnv", "StagingError", "eval_host", "gexp_inputs",
             "gexp_modules", "gexp_outputs", "gexp_to_sexp", "stage"),
    "lowerable": ("FileAppend", "GexpCompiler", "LocalFile", "Lowering",
                  "LoweringError", "Package", "PlainFile", "expand_object",
                  "file_append", "gexp_to_derivation", "lower_gexp",
                  "lower_object", "register_compiler"),
    "modules": ("ModuleError", "ModuleFile", "ModuleName",
                "intern_module_closure", "source_module_closure"),
    "sexp": ("Boolean", "Integer", "Keyword", "ParseError", "Sexp", "SList",
             "String", "Symbol", "hash_sexp", "print_canonical", "read",
             "read_all", "slist"),
    "store": ("BuildError", "DEFAULT_SYSTEM", "Derivation", "Store",
              "StoreError", "StorePath", "build", "derivation_text",
              "derivation_from_sexp", "find_store_references", "output_path",
              "parse_store_path", "plan", "read_derivation",
              "write_derivation"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"),
                       name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
