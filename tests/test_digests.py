"""Seeded results stay byte-identical within a version.

``data/seeded_digests.json`` and the jobs behind it are described in
``regen_digests.py``, which regenerates the file after a version bump.
"""
import json

import pytest

import qmlkit
import regen_digests


@pytest.fixture(scope="module")
def recorded():
    return json.loads(regen_digests.DIGEST_FILE.read_text(encoding="utf-8"))


def test_versions_agree(recorded):
    assert recorded["version"] == qmlkit.__version__ == regen_digests.pyproject_version()


def test_seeded_digests_unchanged(recorded):
    here = regen_digests.fingerprint()
    for field, value in recorded["environment"].items():
        if here.get(field) != value:
            pytest.skip(f"digests were made with {field} {value!r}; this environment has "
                        f"{here.get(field)!r}")
    digests = regen_digests.compute_digests()
    assert sorted(digests) == sorted(recorded["digests"])
    changed = [name for name, value in recorded["digests"].items() if digests[name] != value]
    assert not changed, f"seeded results moved at version {qmlkit.__version__}: {changed}"
