"""Known-bad fixture: environment/filesystem iteration-order hazards.

Every function below iterates an OS-ordered source in an order-sensitive
position.  The lint must flag each one.  Kept out of ``src/`` so the
shipped-sources cleanliness test never sees it.
"""

import os
from os import listdir as ls
from pathlib import Path


def seed_from_environment():
    material = []
    for name in os.environ:
        material.append(name)
    return material


def environment_pairs():
    return list(os.environ.items())


def config_values():
    return [value for value in os.environ.values()]


def replay_inputs(directory):
    traces = []
    for name in os.listdir(directory):
        traces.append(name)
    return traces


def aliased_listing(directory):
    return [name for name in ls(directory)]  # os.listdir through an alias


def entry_sizes(directory):
    sizes = []
    for entry in os.scandir(directory):
        sizes.append(entry.stat().st_size)
    return sizes


def capture_files(directory):
    return [path.name for path in Path(directory).iterdir()]
