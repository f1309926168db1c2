"""The package's public names: every __all__ entry resolves, the package
root re-exports exactly the union of the __all__ of the modules it
star-imports, that union is the listed surface, and no module imports a
name it never uses."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import types

import skewalg

# every name the package root hands out; a change to the surface shows here
PUBLIC_NAMES = [
    "ActionInvalidError", "AxiomReport", "AxiomViolationError", "BiBandAlgebra", "BoundExceededError",
    "Check", "CompositionAmbiguityError", "DEFAULT_MAX_ORDER", "ElementIndexError", "FiniteGroupoid",
    "GROUP_CATALOG", "GroupAction", "GroupTable", "Isomorphism", "MalformedSystemError", "ModelInstance",
    "OperationTable", "RestrictionSystem",
    "SignatureMismatchError", "SkeletonNotClosedError", "SkewLatticeTable", "SkewalgError",
    "anti_automorphism_witness", "associativity_witness", "automorphisms_of", "build_algebra",
    "chain_lattice", "check_action", "check_axioms", "check_band",
    "check_extension_axioms", "check_groupoid", "check_linking", "check_restriction_axioms", "check_skehr",
    "check_skew_lattice", "check_structure", "congruence_kernels", "cyclic_group", "dedupe_actions",
    "discrete_system", "enumerate_actions", "enumerate_bands", "enumerate_skew_lattices", "find_isomorphism",
    "generate_model_suite", "greens_relations", "group_system", "idempotent_skeleton", "inverses_of",
    "klein_four", "labeled_bands", "left_zero", "load_structure", "normal_form_report",
    "plus_minus", "preserves_operations", "read_structure", "reconstruct", "rectangular_skew", "right_zero",
    "roundtrip_algebra", "roundtrip_groupoid", "save_structure", "semidirect_algebra", "semidirect_groupoid",
    "signature_of", "structure_from_dict", "structure_to_dict", "symmetric_group3", "trivial_action",
    "verify_derived_identities",
]


def test_every_all_entry_resolves():
    for info in pkgutil.iter_modules(skewalg.__path__):
        module = importlib.import_module(f"skewalg.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], info.name


def test_root_exports_the_union_of_its_modules_all():
    imports = [
        node for node in ast.parse(inspect.getsource(skewalg)).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports and all([alias.name for alias in node.names] == ["*"] for node in imports)
    modules = [importlib.import_module(f"skewalg.{node.module}") for node in imports]
    # without __all__ a star import would also hand out np, functools, ...
    assert [m.__name__ for m in modules if not hasattr(m, "__all__")] == []
    listed = [name for m in modules for name in m.__all__]
    assert len(listed) == len(set(listed))
    public = {
        name for name, value in vars(skewalg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(listed)
    assert sorted(public) == PUBLIC_NAMES and len(PUBLIC_NAMES) == 72


def test_no_module_imports_a_name_it_never_uses():
    # a name counts as used when the module reads it or lists it in __all__
    for path in sorted(pathlib.Path(skewalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
                used |= set(ast.literal_eval(node.value))
        assert sorted(imported - used) == [], path.name
