package mem

import "strconv"

// Stage-1 descriptor bits (simplified ARMv8 long-descriptor format; the bit
// positions follow the architecture so PTE dumps read naturally).
const (
	DescValid uint64 = 1 << 0
	// DescTable distinguishes table descriptors at levels 0..2 and page
	// descriptors at level 3 (as in the real format, where bit 1 is set
	// for both "table" and "L3 page" and clear for blocks).
	DescTable uint64 = 1 << 1

	// AttrAPUser (AP[1]) grants EL0 ("user page") access. This is the
	// bit PAN keys on, and the bit LightZone's PAN mechanism uses to
	// mark protected memory (§6.1).
	AttrAPUser uint64 = 1 << 6
	// AttrAPRO (AP[2]) makes the mapping read-only at all levels.
	AttrAPRO uint64 = 1 << 7
	// AttrAF is the access flag; clear means access faults.
	AttrAF uint64 = 1 << 10
	// AttrNG marks a mapping as non-global (ASID-tagged). Kernel/global
	// mappings leave it clear, which is what makes LightZone's
	// TTBR-switch cheap: global PTEs survive ASID changes in the TLB.
	AttrNG uint64 = 1 << 11
	// AttrPXN forbids privileged (EL1) execution.
	AttrPXN uint64 = 1 << 53
	// AttrUXN forbids unprivileged (EL0) execution.
	AttrUXN uint64 = 1 << 54

	// AttrSWLZProt is a software bit (IGNORED by hardware, bits 55-58)
	// used by the LightZone kernel module to tag PTEs of protected
	// domains.
	AttrSWLZProt uint64 = 1 << 55

	// OverlayKeyShift places the permission-overlay key index in the
	// descriptor's upper attribute byte (bits 63:56). The overlay backend
	// generalizes POE's 3-bit POIndex to 8 bits so a key can name each of
	// the evaluation's up-to-128 domains; key 0 means "no overlay" and the
	// page behaves exactly as the base attributes say.
	OverlayKeyShift = 56
	// OverlayKeyMax is the largest representable overlay key.
	OverlayKeyMax = 255

	// OAMask extracts the output address from a descriptor.
	OAMask uint64 = 0x0000_FFFF_FFFF_F000
)

// OverlayKey extracts a descriptor's permission-overlay key (0 = none).
func OverlayKey(desc uint64) int {
	return int(desc >> OverlayKeyShift & OverlayKeyMax)
}

// OverlayKeyAttr builds the descriptor attribute bits carrying an overlay
// key. Keys outside 1..OverlayKeyMax are not representable; callers
// validate before mapping.
func OverlayKeyAttr(key int) uint64 {
	return uint64(key&OverlayKeyMax) << OverlayKeyShift
}

// Stage-2 descriptor bits.
const (
	// S2APRead / S2APWrite form the S2AP field (bits 7:6).
	S2APRead  uint64 = 1 << 6
	S2APWrite uint64 = 1 << 7
	// S2XN forbids execution at any guest exception level.
	S2XN uint64 = 1 << 54
)

// AccessType describes a memory access for permission checking.
type AccessType uint8

const (
	AccessRead AccessType = iota + 1
	AccessWrite
	AccessExec
)

func (a AccessType) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	default:
		return "access?"
	}
}

// FaultKind classifies translation faults.
type FaultKind uint8

const (
	FaultNone        FaultKind = iota
	FaultTranslation           // no valid mapping
	FaultPermission            // mapping exists but denies the access
	FaultAddressSize           // non-canonical or out-of-range address
	FaultAccessFlag            // AF clear
	FaultOverlay               // permission-overlay key check failed
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultTranslation:
		return "translation"
	case FaultPermission:
		return "permission"
	case FaultAddressSize:
		return "address-size"
	case FaultAccessFlag:
		return "access-flag"
	case FaultOverlay:
		return "overlay"
	default:
		return "fault?"
	}
}

// Fault describes a stage-1 or stage-2 abort. It implements error so
// translation paths can return it directly.
type Fault struct {
	Stage  int // 1 or 2
	Kind   FaultKind
	Access AccessType
	VA     VA
	IPA    IPA
	Level  int
}

func (f *Fault) Error() string {
	return "stage-" + strconv.Itoa(f.Stage) + " " + f.Kind.String() + " fault on " +
		f.Access.String() + " at " + f.VA.String() + " (level " + strconv.Itoa(f.Level) + ")"
}

// CheckStage1 validates a stage-1 leaf descriptor against an access
// performed at el with the given PSTATE.PAN value. It implements:
//   - AP[2] read-only semantics,
//   - AP[1] EL0-accessibility: EL0 may only touch user pages,
//   - PAN: a privileged (EL1/EL2) data access to a user page faults when
//     PAN is set — the LightZone PAN isolation primitive,
//   - unprivileged override (LDTR/STTR): the access is checked as if from
//     EL0 regardless of PAN — which is why the sanitizer must forbid those
//     instructions for PAN-isolated processes (Table 3),
//   - UXN/PXN execute-never split.
func CheckStage1(desc uint64, acc AccessType, privileged, pan, unprivOverride bool) FaultKind {
	user := desc&AttrAPUser != 0
	ro := desc&AttrAPRO != 0
	if desc&AttrAF == 0 {
		return FaultAccessFlag
	}
	eff := privileged && !unprivOverride
	switch acc {
	case AccessExec:
		if eff {
			if desc&AttrPXN != 0 {
				return FaultPermission
			}
			// ARMv8: a writable-at-EL0 page is never privileged-
			// executable; modelled via explicit PXN by the kernel.
		} else if desc&AttrUXN != 0 || !user {
			return FaultPermission
		}
		return FaultNone
	case AccessWrite:
		if ro {
			return FaultPermission
		}
	case AccessRead:
		// readable unless EL0 restrictions below apply
	}
	if !eff && !user {
		return FaultPermission // EL0 (or LDTR/STTR) touching a kernel page
	}
	if eff && user && pan && acc != AccessExec {
		return FaultPermission // PAN blocks privileged access to user pages
	}
	return FaultNone
}

// CheckStage2 validates a stage-2 leaf descriptor.
func CheckStage2(desc uint64, acc AccessType) FaultKind {
	switch acc {
	case AccessRead:
		if desc&S2APRead == 0 {
			return FaultPermission
		}
	case AccessWrite:
		if desc&S2APWrite == 0 {
			return FaultPermission
		}
	case AccessExec:
		if desc&S2XN != 0 || desc&S2APRead == 0 {
			return FaultPermission
		}
	}
	return FaultNone
}
