"""Module / Parameter abstractions mirroring the familiar torch-style API."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor registered as a trainable model parameter."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with recursive parameter discovery and train/eval mode."""

    def __init__(self):
        self.training = True

    # -- parameter traversal -------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{name}.{index}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{index}.")
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Parameter):
                        yield f"{name}.{key}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{key}.")

    def parameters(self) -> list[Parameter]:
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total scalar parameter count (used for model-size reporting)."""
        return sum(param.size for param in self.parameters())

    # -- train / eval ----------------------------------------------------
    def _submodules(self) -> Iterator["Module"]:
        for value in vars(self).values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item
            elif isinstance(value, dict):
                for item in value.values():
                    if isinstance(item, Module):
                        yield item

    def train(self) -> "Module":
        self.training = True
        for module in self._submodules():
            module.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for module in self._submodules():
            module.eval()
        return self

    # -- state (de)serialization ------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {param.data.shape} vs {state[name].shape}"
                )
            if param.data.dtype != state[name].dtype:
                raise ValueError(
                    f"dtype mismatch for {name}: {param.data.dtype} vs {state[name].dtype}"
                )
            param.data = state[name].copy()

    def save(self, path: str) -> None:
        """Persist all parameters to a ``.npz`` file."""
        np.savez(path, **self.state_dict())

    def load(self, path: str) -> None:
        """Restore parameters previously written by :meth:`save`."""
        with np.load(path) as archive:
            self.load_state_dict({key: archive[key] for key in archive.files})

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError
