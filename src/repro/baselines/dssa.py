"""DSSA role-based delegation (§5 comparator).

"In the DSSA, principals generate and sign delegation certificates to allow
intermediate systems to act on their behalf.  An important difference is
that ... restrictions are supported only by creating separate principals,
called roles ...  The creation of a new role is cumbersome when delegating
on the fly or when granting access to individual objects.  Roles can not be
used to implement the authorization server of Section 3.2."

The model here:

* a :class:`DssaPrincipal` has a long-term keypair;
* restricting a delegation requires :meth:`create_role` — generating a
  *fresh keypair* for the role, signing a role certificate binding the role
  to a fixed rights list, and (in a real deployment) registering it;
* delegation is a certificate naming the delegate, signed by the role key;
* end-servers verify offline given the user's public key (that part DSSA
  does as well as proxies — the cost difference is *role creation per
  distinct rights subset*, measured by benchmark C5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.crypto import schnorr as _schnorr
from repro.crypto.rng import DEFAULT_RNG, Rng
from repro.crypto.schnorr_groups import TEST_GROUP, SchnorrGroup
from repro.encoding.canonical import encode
from repro.encoding.identifiers import PrincipalId
from repro.errors import AuthorizationDenied, SignatureError

_ROLE_DOMAIN = "dssa-role-cert-v1"
_DELEGATION_DOMAIN = "dssa-delegation-cert-v1"


@dataclass(frozen=True)
class RoleCertificate:
    """Binds a role public key to a fixed rights list, signed by the user."""

    user: PrincipalId
    role_name: str
    rights: Tuple[Tuple[str, str], ...]  # (operation, target) pairs
    role_public: _schnorr.SchnorrPublicKey
    expires_at: float
    signature: bytes = field(repr=False)

    @staticmethod
    def signed_body(
        user: PrincipalId,
        role_name: str,
        rights: Tuple[Tuple[str, str], ...],
        role_public: _schnorr.SchnorrPublicKey,
        expires_at: float,
    ) -> bytes:
        return encode(
            [
                _ROLE_DOMAIN,
                user.to_wire(),
                role_name,
                [list(r) for r in rights],
                role_public.to_wire(),
                float(expires_at),
            ]
        )

    def body_bytes(self) -> bytes:
        return self.signed_body(
            self.user,
            self.role_name,
            self.rights,
            self.role_public,
            self.expires_at,
        )


@dataclass(frozen=True)
class DelegationCertificate:
    """Allows ``delegate`` to act as the role, signed by the role key."""

    role: RoleCertificate
    delegate: PrincipalId
    expires_at: float
    signature: bytes = field(repr=False)

    @staticmethod
    def signed_body(
        role: RoleCertificate, delegate: PrincipalId, expires_at: float
    ) -> bytes:
        return encode(
            [
                _DELEGATION_DOMAIN,
                role.body_bytes(),
                delegate.to_wire(),
                float(expires_at),
            ]
        )

    def body_bytes(self) -> bytes:
        return self.signed_body(self.role, self.delegate, self.expires_at)


@dataclass
class Role:
    """A role as held by its creating user (certificate + private key)."""

    certificate: RoleCertificate
    private: _schnorr.SchnorrPrivateKey = field(repr=False)


class DssaPrincipal:
    """A DSSA user: identity keypair plus role management."""

    def __init__(
        self,
        principal: PrincipalId,
        group: SchnorrGroup = TEST_GROUP,
        rng: Optional[Rng] = None,
    ) -> None:
        self.principal = principal
        self.group = group
        self._rng = rng or DEFAULT_RNG
        self.identity = _schnorr.generate_keypair(group, rng=self._rng)
        self.roles: Dict[str, Role] = {}
        self._role_counter = 0

    @property
    def public_key(self) -> _schnorr.SchnorrPublicKey:
        return self.identity.public

    def create_role(
        self,
        rights: Tuple[Tuple[str, str], ...],
        expires_at: float,
        name: Optional[str] = None,
    ) -> Role:
        """The cumbersome part: new principal (keypair) per rights subset."""
        self._role_counter += 1
        role_name = name or f"{self.principal.name}-role-{self._role_counter}"
        role_key = _schnorr.generate_keypair(self.group, rng=self._rng)
        body = RoleCertificate.signed_body(
            self.principal, role_name, rights, role_key.public, expires_at
        )
        certificate = RoleCertificate(
            user=self.principal,
            role_name=role_name,
            rights=rights,
            role_public=role_key.public,
            expires_at=expires_at,
            signature=_schnorr.sign(self.identity, body, rng=self._rng),
        )
        role = Role(certificate=certificate, private=role_key)
        self.roles[role_name] = role
        return role

    def delegate(
        self, role: Role, delegate: PrincipalId, expires_at: float
    ) -> DelegationCertificate:
        body = DelegationCertificate.signed_body(
            role.certificate, delegate, expires_at
        )
        return DelegationCertificate(
            role=role.certificate,
            delegate=delegate,
            expires_at=expires_at,
            signature=_schnorr.sign(role.private, body, rng=self._rng),
        )


class DssaVerifier:
    """End-server side: offline verification against a key directory."""

    def __init__(self) -> None:
        self._directory: Dict[PrincipalId, _schnorr.SchnorrPublicKey] = {}

    def register(
        self, principal: PrincipalId, public: _schnorr.SchnorrPublicKey
    ) -> None:
        self._directory[principal] = public

    def verify(
        self,
        delegation: DelegationCertificate,
        claimant: PrincipalId,
        operation: str,
        target: str,
        now: float,
    ) -> PrincipalId:
        """Return the user whose rights apply, or raise."""
        role = delegation.role
        user_key = self._directory.get(role.user)
        if user_key is None:
            raise AuthorizationDenied(f"unknown user {role.user}")
        if role.expires_at < now or delegation.expires_at < now:
            raise AuthorizationDenied("certificate expired")
        try:
            _schnorr.verify(user_key, role.body_bytes(), role.signature)
            _schnorr.verify(
                role.role_public,
                delegation.body_bytes(),
                delegation.signature,
            )
        except SignatureError as exc:
            raise AuthorizationDenied(f"bad DSSA signature: {exc}") from exc
        if delegation.delegate != claimant:
            raise AuthorizationDenied(
                f"{claimant} is not the named delegate"
            )
        if (operation, target) not in role.rights and (
            operation,
            "*",
        ) not in role.rights:
            raise AuthorizationDenied(
                f"role {role.role_name} does not include "
                f"({operation}, {target})"
            )
        return role.user
