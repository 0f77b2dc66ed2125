import inspect

import gazesim


def test_all_lists_every_public_name_and_no_module():
    public = {name for name in dir(gazesim) if not name.startswith("_")
              and not inspect.ismodule(getattr(gazesim, name))}
    assert sorted(gazesim.__all__) == sorted(public)
    assert len(gazesim.__all__) == len(set(gazesim.__all__))
    assert not [name for name in gazesim.__all__ if inspect.ismodule(getattr(gazesim, name))]


def test_star_import_keeps_stdlib_io_and_types():
    namespace = {}
    exec("import io, types\nfrom gazesim import *", namespace)
    assert namespace["io"].__name__ == "io"
    assert namespace["types"].__name__ == "types"
    assert namespace["recording_quality"] is gazesim.recording_quality
